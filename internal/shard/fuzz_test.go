package shard

import (
	"bytes"
	"reflect"
	"testing"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/telemetry"
)

// encodeBody renders f as one frame body (without the length prefix) — the
// exact bytes writeFrame would put on the wire.
func encodeBody(t interface{ Fatalf(string, ...any) }, f *frame) []byte {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, f); err != nil {
		t.Fatalf("encoding %s frame: %v", f.T, err)
	}
	return buf.Bytes()[4:]
}

// reencodable reports whether writeFrame can render f again: a JSON body may
// claim a binary payload type and decode with a nil payload — every receive
// site rejects such frames by type check, so the round-trip property does not
// apply to them.
func reencodable(f *frame) bool {
	switch f.T {
	case "dataset":
		return f.Dataset != nil
	case "level":
		return f.Level != nil
	case "result":
		return f.Result != nil
	}
	return true
}

// FuzzDecodeFrame pins the two codec guarantees the wire protocol leans on:
// decodeFrame is total over arbitrary bytes (errors, never panics), and any
// body it accepts re-encodes to a canonical form that round-trips losslessly
// (encode ∘ decode is idempotent at the byte level).
func FuzzDecodeFrame(f *testing.F) {
	// One valid seed per frame kind, plus near-misses that walk the
	// dispatch-byte and version-check branches.
	f.Add(encodeBody(f, &frame{T: "hello", Hello: &helloMsg{Proto: protoVersion, Fingerprint: "fp", Rows: 7, Cols: 3}}))
	f.Add(encodeBody(f, &frame{T: "ack", Ack: &ackMsg{OK: true, NeedDataset: true}}))
	f.Add(encodeBody(f, &frame{T: "level", Level: &levelMsg{
		Level: 2,
		Trace: "tr-1",
		Tasks: []core.NodeTask{{Set: 6, Level: 2, ConstValid: 1, ParentConst: []uint64{3, 5}, OCValid: []uint64{9}, OCValidDesc: []uint64{4}}},
	}}))
	// A task and a result carrying the exact-FD skip state of protocol 6.
	f.Add(encodeBody(f, &frame{T: "level", Level: &levelMsg{
		Level: 3,
		Tasks: []core.NodeTask{{Set: 14, Level: 3, ParentConst: []uint64{0, 4, 2}, OCValid: []uint64{1},
			FDContexts: 8, ParentFDContexts: []uint64{0, 8, 4}}},
	}}))
	f.Add(encodeBody(f, &frame{T: "result", Result: &resultMsg{
		Results: []core.NodeResult{{
			Candidates: 1,
			NewConst:   6,
			NewExact:   2,
			Stats:      core.TaskStats{OFDCandidates: 1, OFDSkipped: 1, OCSkippedFD: 2, OFDSkippedFD: 1},
		}},
	}}))
	f.Add(encodeBody(f, &frame{T: "result", Result: &resultMsg{
		Results: []core.NodeResult{{
			Candidates: 2,
			NewConst:   4,
			OCs:        []core.TaskOC{{A: 1, B: 2, Descending: true, Error: 0.25, Removals: 3, RemovalRows: []int32{4, 9, 11}}},
			OFDs:       []core.TaskOFD{{A: 0, Error: 0.5, Removals: 1, RemovalRows: []int32{2}}},
		}},
		Spans: []telemetry.WireSpan{{Name: "slice"}},
	}}))
	tbl, err := dataset.ReadCSV(bytes.NewReader([]byte("a,b\n1,x\n2,y\n1,x\n")), dataset.CSVOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeBody(f, &frame{T: "dataset", Dataset: tbl}))
	f.Add([]byte{})
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, protoVersion})
	f.Add([]byte{binMagic, protoVersion + 1, binLevel})
	f.Add([]byte{binMagic, protoVersion, 99})
	f.Add([]byte(`{"t":"level"}`))
	f.Add([]byte(`{"t":"parts"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data) // must never panic
		if err != nil || !reencodable(fr) {
			return
		}
		var buf1 bytes.Buffer
		if _, err := writeFrame(&buf1, fr); err != nil {
			// JSON bodies can carry frame types writeFrame does not know.
			return
		}
		fr2, err := decodeFrame(buf1.Bytes()[4:])
		if err != nil {
			t.Fatalf("re-decoding a frame the codec itself produced: %v", err)
		}
		var buf2 bytes.Buffer
		if _, err := writeFrame(&buf2, fr2); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("encode∘decode not idempotent:\n first %x\nsecond %x", buf1.Bytes(), buf2.Bytes())
		}
	})
}

// FuzzDecodeTasks fuzzes the task-record decoder directly (the hot inner
// loop of every level frame): arbitrary bytes never panic, and any accepted
// task slice survives an encode→decode round trip value-identically.
func FuzzDecodeTasks(f *testing.F) {
	// Seeds are raw decodeTasks input: the count-prefixed task records alone,
	// without the enclosing level header.
	enc := func(tasks []core.NodeTask) []byte {
		b := encodeLevelPayload(nil, &levelMsg{Level: 0, Trace: "", Tasks: tasks})
		// encodeLevelPayload prefixes uvarint(level=0) and string(trace="")
		// — one byte each — ahead of the task records.
		return b[2:]
	}
	f.Add(enc(nil))
	f.Add(enc([]core.NodeTask{{Set: 3, Level: 1, ConstValid: 2}}))
	f.Add(enc([]core.NodeTask{
		{Set: 6, Level: 2, ConstValid: 1, ParentConst: []uint64{3, 5}, OCValid: []uint64{9, 1}, OCValidDesc: []uint64{4}},
		{Set: 12, Level: 2, ConstValid: 0, OCValid: []uint64{7}},
	}))
	f.Add(enc([]core.NodeTask{
		{Set: 7, Level: 3, ParentConst: []uint64{0, 1, 0}, FDContexts: 5, ParentFDContexts: []uint64{2, 0, 1}},
		{Set: 11, Level: 3, FDContexts: 1<<63 | 1},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge count
	f.Add([]byte{1, 0})                                                       // truncated mid-task

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &wireReader{b: data}
		tasks, err := decodeTasks(r) // must never panic
		if err != nil {
			return
		}
		b := enc(tasks)
		r2 := &wireReader{b: b}
		tasks2, err := decodeTasks(r2)
		if err != nil {
			t.Fatalf("re-decoding tasks the codec itself encoded: %v", err)
		}
		if r2.remaining() != 0 {
			t.Fatalf("%d bytes left after re-decoding %d tasks", r2.remaining(), len(tasks2))
		}
		if !reflect.DeepEqual(tasks, tasks2) {
			t.Fatalf("task round trip diverged:\n first %+v\nsecond %+v", tasks, tasks2)
		}
	})
}

// retiredBinParts is the binary type byte of protocol v3's parts frame.
const retiredBinParts byte = 4

// FuzzDecodePartitionFrame pins the current protocol's refusal of the parts frame
// that v3 coordinators used to ship context partitions in: decoding
// arbitrary bytes never panics, and no binary body in the retired layout
// decodes — not a v3 peer's frame, not one stamped with the current or a
// future version byte, and not a truncated or structurally broken one. Every
// binary body the decoder does accept is a dataset, level or result frame of
// the current version.
func FuzzDecodePartitionFrame(f *testing.F) {
	// partsBody lays out a parts frame as v3 encoded it: level, entry count,
	// then per entry the attribute set, the row count, and the CSR rows and
	// offsets arrays.
	type entry struct {
		set, n        uint64
		rows, offsets []int32
	}
	partsBody := func(version byte, level uint64, entries ...entry) []byte {
		b := []byte{binMagic, version, retiredBinParts}
		b = appendUvarint(b, level)
		b = appendUvarint(b, uint64(len(entries)))
		for _, e := range entries {
			b = appendUvarint(b, e.set)
			b = appendUvarint(b, e.n)
			b = appendRows32(b, e.rows)
			b = appendRows32(b, e.offsets)
		}
		return b
	}
	// Well-formed v3 frames: a single two-class partition, and a fully
	// stripped partition next to classes in fold-discovery order.
	f.Add(partsBody(3, 2, entry{3, 6, []int32{0, 2, 4, 1, 5}, []int32{0, 3, 5}}))
	multi := []entry{
		{7, 5, nil, nil},
		{11, 4, []int32{2, 3, 0, 1}, []int32{0, 2, 4}},
		{13, 9, []int32{1, 4, 8, 0, 2, 6}, []int32{0, 3, 6}},
	}
	valid := partsBody(3, 3, multi...)
	f.Add(valid)
	// The same layout stamped with the current and a future version byte,
	// a truncated body, an empty payload, and the structurally invalid CSR
	// shapes v3 refused (rows out of order within a class, a singleton
	// class, offsets that do not start at 0).
	f.Add(partsBody(protoVersion, 3, multi...))
	f.Add(partsBody(protoVersion+1, 3, multi...))
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{binMagic, protoVersion, retiredBinParts})
	f.Add(partsBody(protoVersion, 2, entry{3, 6, []int32{5, 1, 2}, []int32{0, 3}}))
	f.Add(partsBody(protoVersion, 2, entry{3, 6, []int32{0, 1, 2}, []int32{0, 1, 3}}))
	f.Add(partsBody(protoVersion, 2, entry{3, 6, []int32{0, 1, 2}, []int32{1, 3}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data) // must never panic
		if err != nil || data[0] != binMagic {
			return
		}
		if data[2] == retiredBinParts {
			t.Fatalf("decoded a body in the retired parts layout as a %q frame", fr.T)
		}
		if data[1] != protoVersion {
			t.Fatalf("decoded a protocol %d body as a %q frame", data[1], fr.T)
		}
		switch fr.T {
		case "dataset", "level", "result":
		default:
			t.Fatalf("binary body decoded as a %q frame", fr.T)
		}
	})
}
