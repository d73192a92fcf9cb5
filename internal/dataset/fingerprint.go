package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
)

// Fingerprint returns a hex-encoded SHA-256 content hash of the table:
// the schema (column names, kinds, row count) plus, per column, the raw
// distinct values in rank order and the full rank encoding. Two tables with
// equal fingerprints are byte-identical inputs to every algorithm in this
// module and therefore produce identical discovery results under identical
// options — the property the service layer's result cache relies on.
func Fingerprint(t *Table) string {
	h := sha256.New()
	buf := appendInt(nil, int64(t.rows))
	buf = appendInt(buf, int64(len(t.cols)))
	h.Write(buf)
	for _, c := range t.cols {
		buf = appendBytes(buf[:0], c.name)
		buf = appendInt(buf, int64(c.kind))
		buf = appendInt(buf, int64(c.distinct))
		buf = slices.Grow(buf, 8*c.distinct+4*len(c.ranks))
		switch c.kind {
		case KindInt:
			for _, v := range c.intVals {
				buf = appendInt(buf, v)
			}
		case KindFloat:
			for _, v := range c.floatVals {
				// NaN bit patterns vary; the builder keeps at most one NaN
				// (rank 0), so a canonical quiet-NaN encoding suffices.
				if math.IsNaN(v) {
					v = math.NaN()
				}
				buf = appendInt(buf, int64(math.Float64bits(v)))
			}
		default:
			for _, v := range c.stringVals {
				buf = appendBytes(buf, v)
			}
		}
		// Ranks are int32; pack them directly.
		for _, r := range c.ranks {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendBytes length-prefixes the payload so adjacent variable-length fields
// cannot alias ("ab","c" vs "a","bc").
func appendBytes(b []byte, s string) []byte {
	return append(appendInt(b, int64(len(s))), s...)
}
