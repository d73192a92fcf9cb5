// Binary codec for shard protocol v6 payload frames.
//
// The handshake frames (hello/ack) stay JSON — that is what makes version
// skew detectable across protocol generations (see protocol.go) — but every
// payload frame (dataset/level/result) is a compact binary body:
//
//	byte 0   binMagic (0xB2; never '{', so JSON and binary frames are
//	         distinguishable from the first byte)
//	byte 1   protocol version (6)
//	byte 2   frame type (binDataset | binLevel | binResult)
//	...      payload
//
// Integers are varints (unsigned where the value is a count/bitmask, zigzag
// where deltas can go negative), float64s are fixed 8-byte little-endian bit
// patterns (bit-exact round trip — removal errors feed byte-identical report
// merging), and rank arrays are width-packed little-endian (1, 2, or 4 bytes
// per rank depending on the column's distinct count). A dataset frame's
// payload is the columnar encoding of package dataset (AppendColumnar and
// DecodeColumnar, the same bytes the persistence layer stores): the exact
// inputs of dataset.Fingerprint — per column: name, kind, distinct values in
// rank order, dense rank array — so the worker rebuilds the table directly
// (no CSV render/re-parse) and the fingerprint check in the handshake proves
// the transfer lossless.
//
// Every decoder is total: arbitrary bytes produce an error, never a panic or
// an unbounded allocation (counts are validated against the remaining payload
// before any slice is allocated). FuzzDecodeFrame/FuzzDecodeTasks pin this,
// and dataset.FuzzDecodeColumnar pins it for the dataset payload.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"aod/internal/core"
)

const (
	// binMagic is the first byte of every binary v2 frame body.
	binMagic byte = 0xB2

	binDataset byte = 1
	binLevel   byte = 2
	binResult  byte = 3
	// Type 4 carried protocol v3's parts frame; it stays unassigned, so a
	// body in that layout is refused as an unknown type.
)

// maxWireAttrs bounds per-task attribute indexes and mask word counts: the
// lattice works over AttrSet (uint64), so no well-formed peer ever exceeds 64
// attributes. Enforcing it at decode keeps hostile frames from driving
// out-of-range indexes into downstream pair-set code.
const maxWireAttrs = 64

var errFrameTruncated = errors.New("shard: truncated frame")

// --- encode helpers ---------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendRows32 encodes an int32 slice as count + zigzag deltas: removal-row
// sets are (near-)sorted, so deltas are tiny, but the encoding is lossless
// for any order.
func appendRows32(b []byte, rows []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	prev := int64(0)
	for _, r := range rows {
		b = binary.AppendVarint(b, int64(r)-prev)
		prev = int64(r)
	}
	return b
}

// --- decode helpers ---------------------------------------------------------

// wireReader walks a binary frame payload with total bounds checking.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errFrameTruncated
	}
	r.off += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errFrameTruncated
	}
	r.off += n
	return v, nil
}

// count reads an element count and validates it against the bytes actually
// left in the payload (each element occupies at least minBytes), so a hostile
// count can never drive a large allocation.
func (r *wireReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("shard: count %d exceeds frame payload", v)
	}
	return int(v), nil
}

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, errFrameTruncated
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, errFrameTruncated
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) string() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *wireReader) float64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *wireReader) rows32() ([]int32, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int32, n)
	prev := int64(0)
	for i := range out {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("shard: row index %d outside int32", prev)
		}
		out[i] = int32(prev)
	}
	return out, nil
}

// uvarints reads a count-prefixed []uint64, bounded by max elements.
func (r *wireReader) uvarints(max int) ([]uint64, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("shard: %d mask words exceeds bound %d", n, max)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- level frame ------------------------------------------------------------

func encodeLevelPayload(b []byte, m *levelMsg) []byte {
	b = appendUvarint(b, uint64(m.Level))
	b = appendString(b, m.Trace)
	b = appendUvarint(b, uint64(len(m.Tasks)))
	for i := range m.Tasks {
		t := &m.Tasks[i]
		b = appendUvarint(b, t.Set)
		b = appendUvarint(b, uint64(t.Level))
		b = appendUvarint(b, t.ConstValid)
		b = appendUvarint(b, uint64(len(t.ParentConst)))
		for _, w := range t.ParentConst {
			b = appendUvarint(b, w)
		}
		b = appendUvarint(b, uint64(len(t.OCValid)))
		for _, w := range t.OCValid {
			b = appendUvarint(b, w)
		}
		b = appendUvarint(b, uint64(len(t.OCValidDesc)))
		for _, w := range t.OCValidDesc {
			b = appendUvarint(b, w)
		}
		b = appendUvarint(b, t.FDContexts)
		b = appendUvarint(b, uint64(len(t.ParentFDContexts)))
		for _, w := range t.ParentFDContexts {
			b = appendUvarint(b, w)
		}
	}
	return b
}

func decodeLevelPayload(r *wireReader) (*levelMsg, error) {
	lvl, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if lvl > maxWireAttrs {
		return nil, fmt.Errorf("shard: level %d exceeds attribute bound", lvl)
	}
	m := &levelMsg{Level: int(lvl)}
	if m.Trace, err = r.string(); err != nil {
		return nil, err
	}
	tasks, err := decodeTasks(r)
	if err != nil {
		return nil, err
	}
	m.Tasks = tasks
	return m, nil
}

func decodeTasks(r *wireReader) ([]core.NodeTask, error) {
	n, err := r.count(3) // a task is at least set+level+constValid
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	tasks := make([]core.NodeTask, n)
	for i := range tasks {
		t := &tasks[i]
		if t.Set, err = r.uvarint(); err != nil {
			return nil, err
		}
		lvl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if lvl > maxWireAttrs {
			return nil, fmt.Errorf("shard: task level %d exceeds attribute bound", lvl)
		}
		t.Level = int(lvl)
		if t.ConstValid, err = r.uvarint(); err != nil {
			return nil, err
		}
		if t.ParentConst, err = r.uvarints(maxWireAttrs); err != nil {
			return nil, err
		}
		if t.OCValid, err = r.uvarints(maxWireAttrs); err != nil {
			return nil, err
		}
		if t.OCValidDesc, err = r.uvarints(maxWireAttrs); err != nil {
			return nil, err
		}
		if t.FDContexts, err = r.uvarint(); err != nil {
			return nil, err
		}
		if t.ParentFDContexts, err = r.uvarints(maxWireAttrs); err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// --- result frame -----------------------------------------------------------

func encodeResultPayload(b []byte, m *resultMsg) ([]byte, error) {
	b = appendString(b, m.Error)
	b = appendUvarint(b, uint64(len(m.Results)))
	for i := range m.Results {
		nr := &m.Results[i]
		b = appendUvarint(b, uint64(nr.Candidates))
		b = appendUvarint(b, nr.NewConst)
		b = appendUvarint(b, nr.NewExact)
		b = appendUvarint(b, uint64(len(nr.OCs)))
		for j := range nr.OCs {
			oc := &nr.OCs[j]
			b = appendUvarint(b, uint64(oc.A))
			b = appendUvarint(b, uint64(oc.B))
			if oc.Descending {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = appendFloat64(b, oc.Error)
			b = appendUvarint(b, uint64(oc.Removals))
			b = appendRows32(b, oc.RemovalRows)
		}
		b = appendUvarint(b, uint64(len(nr.OFDs)))
		for j := range nr.OFDs {
			ofd := &nr.OFDs[j]
			b = appendUvarint(b, uint64(ofd.A))
			b = appendFloat64(b, ofd.Error)
			b = appendUvarint(b, uint64(ofd.Removals))
			b = appendRows32(b, ofd.RemovalRows)
		}
		st := &nr.Stats
		b = appendUvarint(b, uint64(st.OCCandidates))
		b = appendUvarint(b, uint64(st.OFDCandidates))
		b = appendUvarint(b, uint64(st.OCSkippedMinimality))
		b = appendUvarint(b, uint64(st.OCSkippedConstancy))
		b = appendUvarint(b, uint64(st.OFDSkipped))
		b = appendUvarint(b, uint64(st.OCSkippedFD))
		b = appendUvarint(b, uint64(st.OFDSkippedFD))
		b = appendUvarint(b, uint64(st.ValidationTime))
		b = appendUvarint(b, uint64(st.PartitionTime))
	}
	// Worker span trees are nested and rare (tracing only); they ride as a
	// length-prefixed JSON blob rather than warranting a binary schema.
	if len(m.Spans) == 0 {
		b = appendUvarint(b, 0)
		return b, nil
	}
	js, err := json.Marshal(m.Spans)
	if err != nil {
		return nil, fmt.Errorf("shard: encode spans: %w", err)
	}
	b = appendUvarint(b, uint64(len(js)))
	return append(b, js...), nil
}

func decodeResultPayload(r *wireReader) (*resultMsg, error) {
	m := &resultMsg{}
	var err error
	if m.Error, err = r.string(); err != nil {
		return nil, err
	}
	n, err := r.count(2) // a result is at least candidates+newConst+... bytes
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Results = make([]core.NodeResult, n)
	}
	for i := range m.Results {
		nr := &m.Results[i]
		cand, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if cand > uint64(math.MaxInt) {
			return nil, fmt.Errorf("shard: candidate count %d overflows", cand)
		}
		nr.Candidates = int(cand)
		if nr.NewConst, err = r.uvarint(); err != nil {
			return nil, err
		}
		if nr.NewExact, err = r.uvarint(); err != nil {
			return nil, err
		}
		nocs, err := r.count(12) // a/b/desc/error8/removals at minimum
		if err != nil {
			return nil, err
		}
		if nocs > 0 {
			nr.OCs = make([]core.TaskOC, nocs)
		}
		for j := range nr.OCs {
			oc := &nr.OCs[j]
			if oc.A, err = r.attrIndex(); err != nil {
				return nil, err
			}
			if oc.B, err = r.attrIndex(); err != nil {
				return nil, err
			}
			d, err := r.byte()
			if err != nil {
				return nil, err
			}
			oc.Descending = d != 0
			if oc.Error, err = r.float64(); err != nil {
				return nil, err
			}
			rem, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			oc.Removals = int(rem)
			if oc.RemovalRows, err = r.rows32(); err != nil {
				return nil, err
			}
		}
		nofds, err := r.count(11)
		if err != nil {
			return nil, err
		}
		if nofds > 0 {
			nr.OFDs = make([]core.TaskOFD, nofds)
		}
		for j := range nr.OFDs {
			ofd := &nr.OFDs[j]
			if ofd.A, err = r.attrIndex(); err != nil {
				return nil, err
			}
			if ofd.Error, err = r.float64(); err != nil {
				return nil, err
			}
			rem, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			ofd.Removals = int(rem)
			if ofd.RemovalRows, err = r.rows32(); err != nil {
				return nil, err
			}
		}
		st := &nr.Stats
		ints := [...]*int{&st.OCCandidates, &st.OFDCandidates, &st.OCSkippedMinimality,
			&st.OCSkippedConstancy, &st.OFDSkipped, &st.OCSkippedFD, &st.OFDSkippedFD}
		for _, p := range ints {
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			*p = int(v)
		}
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		st.ValidationTime = time.Duration(v)
		if v, err = r.uvarint(); err != nil {
			return nil, err
		}
		st.PartitionTime = time.Duration(v)
	}
	spanLen, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if spanLen > 0 {
		js, err := r.take(spanLen)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(js, &m.Spans); err != nil {
			return nil, fmt.Errorf("shard: decode spans: %w", err)
		}
	}
	return m, nil
}

// attrIndex reads one attribute index, bounded to the lattice's 64-attribute
// universe so results can never index a pair set out of range.
func (r *wireReader) attrIndex() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= maxWireAttrs {
		return 0, fmt.Errorf("shard: attribute index %d exceeds bound", v)
	}
	return int(v), nil
}
