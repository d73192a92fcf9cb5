// Package shard distributes lattice-level validation across worker
// processes: the coordinator-side Cluster (implementing core.ShardPool) and
// the worker-side Worker speak a small framed protocol over any net.Conn —
// TCP for real deployments (cmd/aodworker), an in-process loopback for tests
// and benchmarks.
//
// The protocol is designed around the paper's observation (after Saxena,
// Golab & Ilyas, PVLDB 2019) that lattice nodes are independent within a
// level given the previous level's state: a session opens with a dataset
// fingerprint handshake (the payload ships only to workers that don't cache
// it, and single-column partitions are built once per worker per dataset),
// after which each lattice level ships only attribute-set tasks and
// validation verdicts — never partitions.
//
// Sequence, per connection (one connection = one job session):
//
//	C → hello   {proto, fingerprint, rows, cols, config}
//	W → ack     {ok, needDataset}
//	C → dataset (columnar rank buffers; only when needDataset)
//	W → ack     {ok}
//	repeat:
//	  C → level  (flat task records)
//	  W → result (flat result records)
//
// Framing is a 4-byte big-endian length prefix followed by one frame body.
// Protocol v6 uses two body encodings, distinguishable by the first byte:
//
//   - hello and ack are JSON (body starts with '{'). Keeping the handshake
//     JSON is what makes version skew an explicit rejection rather than a
//     garbage decode: any generation of this protocol can parse any other
//     generation's hello, see a proto number it does not speak, and answer
//     with a clear in-band ack error.
//   - dataset, level, and result are compact binary (body starts with
//     binMagic, 0xB2 — see codec.go), legal only after a successful v6
//     handshake.
//
// Errors are in-band (ack.error / result.error); transport failures surface
// as read/write errors and mark the worker dead for the session.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/telemetry"
)

// protoVersion guards against coordinator/worker skew: a worker refuses a
// hello whose version it does not speak, and the coordinator treats that
// worker as unusable. Version 2 replaced the JSON payload frames of v1 with
// the binary codec in codec.go (columnar datasets, flat task/result records);
// version 3 added a parts frame of coordinator-built context partitions,
// version 4 removed it again (workers fold every partition they read),
// version 5 dropped the sampled-rejection counter from the result record's
// stats fragment, and version 6 added the exact-FD skip state: each task
// record carries FDContexts and ParentFDContexts, and each result record
// NewExact and the OCSkippedFD/OFDSkippedFD counters.
const protoVersion = 6

// maxFrameBytes bounds a single frame (the dataset frame dominates; task and
// result frames are small). Oversized frames poison the connection.
const maxFrameBytes = 1 << 30

// frame is the single wire envelope; T selects which payload is set. Only
// hello and ack ever travel as JSON — payload frames are binary, so a JSON
// body claiming to be one decodes with a nil payload and is rejected by the
// type checks at each receive site.
type frame struct {
	T       string         `json:"t"`
	Hello   *helloMsg      `json:"hello,omitempty"`
	Ack     *ackMsg        `json:"ack,omitempty"`
	Dataset *dataset.Table `json:"-"`
	Level   *levelMsg      `json:"-"`
	Result  *resultMsg     `json:"-"`
}

// helloMsg opens a job session: the dataset's identity and the discovery
// configuration the worker must validate tasks under.
type helloMsg struct {
	Proto       int         `json:"proto"`
	Fingerprint string      `json:"fingerprint"`
	Rows        int         `json:"rows"`
	Cols        int         `json:"cols"`
	Config      core.Config `json:"config"`
}

// ackMsg answers hello and dataset frames.
type ackMsg struct {
	OK bool `json:"ok"`
	// NeedDataset asks the coordinator to ship the dataset payload (the
	// fingerprint missed the worker's cache).
	NeedDataset bool   `json:"needDataset,omitempty"`
	Error       string `json:"error,omitempty"`
}

// levelMsg carries one contiguous slice of a lattice level. Trace, when
// non-empty, is the coordinator's trace ID; the worker echoes it on the
// spans it returns so they stitch into the coordinator's trace.
type levelMsg struct {
	Level int
	Tasks []core.NodeTask
	Trace string
}

// resultMsg answers a levelMsg with the slice's results in task order.
// Spans carries the worker-side span tree for the slice (only when the
// request carried a trace ID), on the worker's own clock — the coordinator
// re-bases them under its RPC span.
type resultMsg struct {
	Results []core.NodeResult
	Spans   []telemetry.WireSpan
	Error   string
}

// writeFrame encodes f and writes it length-prefixed. It returns the number
// of bytes written (header included) for the frame-level telemetry counters.
func writeFrame(w io.Writer, f *frame) (int, error) {
	var body []byte
	switch f.T {
	case "hello", "ack":
		js, err := json.Marshal(f)
		if err != nil {
			return 0, fmt.Errorf("shard: encode %s frame: %w", f.T, err)
		}
		body = js
	case "dataset":
		body = dataset.AppendColumnar([]byte{binMagic, protoVersion, binDataset}, f.Dataset)
	case "level":
		body = encodeLevelPayload([]byte{binMagic, protoVersion, binLevel}, f.Level)
	case "result":
		var err error
		body, err = encodeResultPayload([]byte{binMagic, protoVersion, binResult}, f.Result)
		if err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("shard: encode unknown frame type %q", f.T)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	return len(hdr) + len(body), nil
}

// readFrame reads one length-prefixed frame, dispatching on the body's first
// byte: '{' is a JSON handshake frame, binMagic a binary payload frame. It
// returns the number of bytes consumed (header included) alongside the frame.
func readFrame(r io.Reader) (*frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, len(hdr), fmt.Errorf("shard: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, len(hdr), err
	}
	consumed := len(hdr) + len(body)
	f, err := decodeFrame(body)
	return f, consumed, err
}

// decodeFrame decodes one frame body (without the length prefix). It is
// total over arbitrary input — errors, never panics — which FuzzDecodeFrame
// pins.
func decodeFrame(body []byte) (*frame, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("shard: empty frame")
	}
	if body[0] == '{' {
		var f frame
		if err := json.Unmarshal(body, &f); err != nil {
			return nil, fmt.Errorf("shard: decode frame: %w", err)
		}
		return &f, nil
	}
	if body[0] != binMagic {
		return nil, fmt.Errorf("shard: unrecognized frame encoding (first byte 0x%02x)", body[0])
	}
	if len(body) < 3 {
		return nil, errFrameTruncated
	}
	if body[1] != protoVersion {
		return nil, fmt.Errorf("shard: binary frame for protocol %d (want %d)", body[1], protoVersion)
	}
	rd := &wireReader{b: body[3:]}
	var f frame
	var err error
	switch body[2] {
	case binDataset:
		f.T = "dataset"
		f.Dataset, err = dataset.DecodeColumnar(rd.b)
		rd.off = len(rd.b) // DecodeColumnar refuses trailing bytes itself
	case binLevel:
		f.T = "level"
		f.Level, err = decodeLevelPayload(rd)
	case binResult:
		f.T = "result"
		f.Result, err = decodeResultPayload(rd)
	default:
		return nil, fmt.Errorf("shard: unknown binary frame type %d", body[2])
	}
	if err != nil {
		return nil, err
	}
	if rd.remaining() != 0 {
		return nil, fmt.Errorf("shard: %d trailing bytes after %s frame", rd.remaining(), f.T)
	}
	return &f, nil
}
