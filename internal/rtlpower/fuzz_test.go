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
// in [laneMinDraws, maxChunkDraws)), which is what consumeChunk
// guarantees in production.
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
		sc := &schedule{}
		// Each 5-byte group is one segment: 4 bytes of threshold, 1 byte
		// scaled into a draw run of 1..4096.
		for i := 0; i+5 <= len(data) && len(sc.segs) < 64; i += 5 {
			thr := binary.LittleEndian.Uint32(data[i:])
			draws := uint32(data[i+4])*16 + 1
			sc.segs = append(sc.segs, segRec{thr: thr, draws: draws, bk: uint32(len(sc.segs)) << 1})
			sc.total += uint64(draws)
		}
		if len(sc.segs) == 0 {
			sc.segs = append(sc.segs, segRec{thr: seed, draws: 1})
			sc.total = 1
		}
		if sc.total < laneMinDraws {
			pad := uint32(laneMinDraws - sc.total)
			sc.segs[len(sc.segs)-1].draws += pad
			sc.total += uint64(pad)
		}
		sc.counts = make([]uint32, len(sc.segs))

		want, wantState := seqScheduleCounts(seed, sc)

		for _, k := range SupportedKernels() {
			s := &StreamEstimator{rng: seed, kernel: k}
			s.countChunkLanes(sc)
			for i := range want {
				if sc.counts[i] != want[i] {
					t.Fatalf("%s: counts[%d] = %d, want %d", k, i, sc.counts[i], want[i])
				}
			}
			if s.rng != wantState {
				t.Fatalf("%s: exit state %#x, want %#x", k, s.rng, wantState)
			}
		}
	})
}
