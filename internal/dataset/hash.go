package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Hash returns a 64-bit content fingerprint of the dataset: dimension, item
// count, every identifier and every attribute's exact float bits, in order.
// Two datasets hash equal iff their contents are bit-identical, which is what
// makes derived artifacts (Monte-Carlo pool snapshots) safely addressable by
// dataset content rather than by mutable name/generation pairs. CSV output
// uses strconv's shortest round-trip formatting, so a dataset survives a
// persist/reload cycle with its hash intact.
func (ds *Dataset) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(ds.d))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(ds.N()))
	h.Write(buf[:])
	for i, id := range ds.ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(id)))
		h.Write(buf[:])
		h.Write([]byte(id))
		for _, v := range ds.Attrs(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
