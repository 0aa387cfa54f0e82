package rtlpower

import (
	"encoding/binary"
	"testing"
)

// FuzzKernelDifferential decodes an arbitrary byte string into a chunk
// schedule and checks every walker tier this host can run — portable
// and SIMD alike — against the sequential scalar chain: identical
// per-segment toggle counts and identical exit RNG state. The decoder
// keeps every schedule inside the lane kernel's contract (total draws
// in [laneMinDraws, maxChunkDraws)), which is what compile
// guarantees in production for a lane walk.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{1}, uint32(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0xdeadbeef))
	f.Add([]byte{
		0x00, 0x00, 0x00, 0x00, 0x10, // thr=0, tiny run
		0xff, 0xff, 0xff, 0xff, 0x80, // thr=^0, long run
		0x34, 0x12, 0x00, 0x80, 0x01,
	}, uint32(12345))

	f.Fuzz(func(t *testing.T, data []byte, seed uint32) {
		if seed == 0 {
			seed = 1 // the xorshift chain is seeded odd in production
		}
		var segs []testSeg
		var total uint64
		// Each 5-byte group is one segment: 4 bytes of threshold, 1 byte
		// scaled into a draw run of 1..4096.
		for i := 0; i+5 <= len(data) && len(segs) < 64; i += 5 {
			g := testSeg{thr: binary.LittleEndian.Uint32(data[i:]), draws: uint32(data[i+4])*16 + 1}
			segs = append(segs, g)
			total += uint64(g.draws)
		}
		if len(segs) == 0 {
			segs = append(segs, testSeg{thr: seed, draws: 1})
			total = 1
		}
		if total < laneMinDraws {
			segs[len(segs)-1].draws += uint32(laneMinDraws - total)
		}
		checkChunkWalks(t, "fuzz", segs, seed)
	})
}
