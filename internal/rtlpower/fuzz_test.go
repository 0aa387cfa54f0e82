package rtlpower

import (
	"encoding/binary"
	"testing"
)

// FuzzKernelDifferential decodes an arbitrary byte string into a chunk
// schedule and checks every walker tier this host can run — portable
// and SIMD alike — against the sequential scalar chain: identical
// per-segment toggle counts and identical exit RNG state. The decoder
// keeps every schedule under maxChunkDraws, as compile does for a lane
// walk, and reaches chunks of fewer draws than the widest tier has
// lanes.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{1}, uint32(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0xdeadbeef))
	f.Add([]byte{
		0x00, 0x00, 0x00, 0x00, 0x10, // thr=0, tiny run
		0xff, 0xff, 0xff, 0xff, 0x80, // thr=^0, long run
		0x34, 0x12, 0x00, 0x80, 0x01,
	}, uint32(12345))
	f.Add([]byte{
		0x00, 0x00, 0x00, 0x80, 0x00, // runs of 1, 2 and 3 draws: a
		0xff, 0xff, 0xff, 0xff, 0x05, // chunk of 6, fewer than any
		0x78, 0x56, 0x34, 0x12, 0x06, // tier's lanes
	}, uint32(99))

	f.Fuzz(func(t *testing.T, data []byte, seed uint32) {
		if seed == 0 {
			seed = 1 // the xorshift chain is seeded odd in production
		}
		var segs []testSeg
		// Each 5-byte group is one segment: 4 bytes of threshold, and a
		// byte b giving a run of 1 + b²/16 draws, 1..4065, finely
		// graded where runs are short.
		for i := 0; i+5 <= len(data) && len(segs) < 64; i += 5 {
			b := uint32(data[i+4])
			segs = append(segs, testSeg{thr: binary.LittleEndian.Uint32(data[i:]), draws: 1 + b*b/16})
		}
		if len(segs) == 0 {
			segs = append(segs, testSeg{thr: seed, draws: 1})
		}
		checkChunkWalks(t, "fuzz", segs, seed)
	})
}
