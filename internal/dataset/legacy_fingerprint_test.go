package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// legacyFingerprint is Fingerprint as it was before each column's hash input
// went to SHA-256 in one Write: one Write per value. Dataset ids must not
// change, so FuzzFingerprint holds the two equal.
func legacyFingerprint(t *Table) string {
	h := sha256.New()
	legacyWriteInt(h, int64(t.rows))
	legacyWriteInt(h, int64(len(t.cols)))
	for _, c := range t.cols {
		legacyWriteBytes(h, []byte(c.name))
		legacyWriteInt(h, int64(c.kind))
		legacyWriteInt(h, int64(c.distinct))
		switch c.kind {
		case KindInt:
			for _, v := range c.intVals {
				legacyWriteInt(h, v)
			}
		case KindFloat:
			for _, v := range c.floatVals {
				if math.IsNaN(v) {
					legacyWriteInt(h, int64(math.Float64bits(math.NaN())))
				} else {
					legacyWriteInt(h, int64(math.Float64bits(v)))
				}
			}
		default:
			for _, v := range c.stringVals {
				legacyWriteBytes(h, []byte(v))
			}
		}
		buf := make([]byte, 4*len(c.ranks))
		for i, r := range c.ranks {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(r))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func legacyWriteInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func legacyWriteBytes(h hash.Hash, b []byte) {
	legacyWriteInt(h, int64(len(b)))
	h.Write(b)
}
