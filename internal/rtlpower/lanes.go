package rtlpower

// The lane walker is the parallel core of the reference estimator. A
// chunk of trace entries compiles (see scheduleEntry) into a flat list
// of segments — runs of RNG draws sharing one toggle threshold — laid
// end to end on the single conceptual xorshift32 draw chain. The walker
// splits that chain into 8 equal stripes whose start states come from
// JumpAhead, clips segments at stripe boundaries into per-lane records,
// and advances all 8 lanes together: the serial latency-bound xorshift
// recurrence becomes 8 independent recurrences and the loop runs at ILP
// (or SIMD, see kernel.go) speed. Every lane enumerates exactly the
// states the sequential walk would have produced at its draw offsets,
// and toggle counts are integers accumulated per segment, so partition
// sums are bit-identical to the sequential counts.

// laneRec is one stripe-clipped run of draws under a single threshold.
// A segment split by a stripe boundary becomes two records with the
// same slot; the counts are additive. The 12-byte layout is indexed
// directly by the assembly walkers.
type laneRec struct {
	thr  uint32 // toggle threshold (raw; the SIMD walker biases it on load)
	rem  uint32 // number of draws in the run, ≥ 1
	slot uint32 // counts index receiving this run's toggles
}

// walk8 is the argument block of one 8-lane walk. Lane j owns records
// recs[off[j] : off[j]+cnt[j]] and starts from state st[j]; the walker
// adds each record's toggle count into counts[rec.slot]. off and cnt
// are consumed in place; st is overwritten with the lanes' final
// states, which for lanes that drained early include sentinel idle
// draws — diagnostic only, chunk RNG continuity uses JumpAhead.
type walk8 struct {
	recs   []laneRec
	counts []uint32
	off    [8]uint32
	cnt    [8]uint32
	st     [8]uint32
}

// walk16 is the argument block of one 16-lane walk, the AVX2 tier's
// form of walk8: lane j owns records recs[off[j] : off[j]+cnt[j]]
// starting from state st[j]. Field offsets are hardcoded in
// lanes16_amd64.s and pinned by TestWalk16Layout.
type walk16 struct {
	recs   []laneRec
	counts []uint32
	off    [16]uint32
	cnt    [16]uint32
	st     [16]uint32
}

// walk64 is the argument block of one 64-lane walk, the AVX-512 tier's
// form of walk8. Field offsets are hardcoded in lanes64_amd64.s and
// pinned by TestWalk64Layout.
type walk64 struct {
	recs   []laneRec
	counts []uint32
	off    [64]uint32
	cnt    [64]uint32
	st     [64]uint32
}

// sentinelRem marks an exhausted lane. Chunk totals are capped below
// 2^31 draws (see maxChunkDraws), so a sentinel can never decay below a
// live lane's remaining count.
const sentinelRem = ^uint32(0)

// countStripes8Go is the portable walker: the 8 lanes advance in
// lockstep rounds of m = min(remaining-in-current-record) draws, so the
// inner loop is 8 independent xorshift chains with branchless toggle
// counting and no per-draw bookkeeping. Exhausted lanes idle on a
// sentinel record with threshold 0 (counts nothing) until all lanes
// drain. It is the production walker off amd64, and on amd64 hosts
// without AVX2.
func countStripes8Go(w *walk8) {
	var rem, thr, acc, slot [8]uint32
	active := 0
	for j := 0; j < 8; j++ {
		rem[j] = sentinelRem
		if w.cnt[j] > 0 {
			r := w.recs[w.off[j]]
			rem[j], thr[j], slot[j] = r.rem, r.thr, r.slot
			w.off[j]++
			w.cnt[j]--
			active++
		}
	}
	s0, s1, s2, s3 := w.st[0], w.st[1], w.st[2], w.st[3]
	s4, s5, s6, s7 := w.st[4], w.st[5], w.st[6], w.st[7]
	for active > 0 {
		m := rem[0]
		for j := 1; j < 8; j++ {
			if rem[j] < m {
				m = rem[j]
			}
		}
		t0, t1, t2, t3 := uint64(thr[0]), uint64(thr[1]), uint64(thr[2]), uint64(thr[3])
		t4, t5, t6, t7 := uint64(thr[4]), uint64(thr[5]), uint64(thr[6]), uint64(thr[7])
		var c0, c1, c2, c3, c4, c5, c6, c7 uint32
		for i := uint32(0); i < m; i++ {
			s0 ^= s0 << 13
			s0 ^= s0 >> 17
			s0 ^= s0 << 5
			c0 += uint32((uint64(s0) - t0) >> 63)
			s1 ^= s1 << 13
			s1 ^= s1 >> 17
			s1 ^= s1 << 5
			c1 += uint32((uint64(s1) - t1) >> 63)
			s2 ^= s2 << 13
			s2 ^= s2 >> 17
			s2 ^= s2 << 5
			c2 += uint32((uint64(s2) - t2) >> 63)
			s3 ^= s3 << 13
			s3 ^= s3 >> 17
			s3 ^= s3 << 5
			c3 += uint32((uint64(s3) - t3) >> 63)
			s4 ^= s4 << 13
			s4 ^= s4 >> 17
			s4 ^= s4 << 5
			c4 += uint32((uint64(s4) - t4) >> 63)
			s5 ^= s5 << 13
			s5 ^= s5 >> 17
			s5 ^= s5 << 5
			c5 += uint32((uint64(s5) - t5) >> 63)
			s6 ^= s6 << 13
			s6 ^= s6 >> 17
			s6 ^= s6 << 5
			c6 += uint32((uint64(s6) - t6) >> 63)
			s7 ^= s7 << 13
			s7 ^= s7 >> 17
			s7 ^= s7 << 5
			c7 += uint32((uint64(s7) - t7) >> 63)
		}
		acc[0] += c0
		acc[1] += c1
		acc[2] += c2
		acc[3] += c3
		acc[4] += c4
		acc[5] += c5
		acc[6] += c6
		acc[7] += c7
		for j := 0; j < 8; j++ {
			rem[j] -= m
			if rem[j] != 0 {
				continue
			}
			w.counts[slot[j]] += acc[j]
			acc[j] = 0
			if w.cnt[j] > 0 {
				r := w.recs[w.off[j]]
				rem[j], thr[j], slot[j] = r.rem, r.thr, r.slot
				w.off[j]++
				w.cnt[j]--
			} else {
				rem[j], thr[j], slot[j] = sentinelRem, 0, 0
				active--
			}
		}
	}
	w.st[0], w.st[1], w.st[2], w.st[3] = s0, s1, s2, s3
	w.st[4], w.st[5], w.st[6], w.st[7] = s4, s5, s6, s7
}

// countStripesWideGo is the portable lockstep walker at any lane width
// up to 64: the width-generic twin of countStripes8Go, used as the
// reference implementation and non-amd64 fallback for the wide (AVX2 /
// AVX-512) argument blocks. Within a round the lanes advance
// sequentially instead of interleaved, which changes nothing observable
// — per-lane chains are independent and counts are integers.
func countStripesWideGo(recs []laneRec, counts []uint32, off, cnt, st []uint32) {
	width := len(off)
	var rem, thr, acc, slot [64]uint32
	active := 0
	for j := 0; j < width; j++ {
		rem[j] = sentinelRem
		if cnt[j] > 0 {
			r := recs[off[j]]
			rem[j], thr[j], slot[j] = r.rem, r.thr, r.slot
			off[j]++
			cnt[j]--
			active++
		}
	}
	for active > 0 {
		m := rem[0]
		for j := 1; j < width; j++ {
			if rem[j] < m {
				m = rem[j]
			}
		}
		for j := 0; j < width; j++ {
			s := st[j]
			t := uint64(thr[j])
			c := uint32(0)
			for i := uint32(0); i < m; i++ {
				s ^= s << 13
				s ^= s >> 17
				s ^= s << 5
				c += uint32((uint64(s) - t) >> 63)
			}
			st[j] = s
			acc[j] += c
		}
		for j := 0; j < width; j++ {
			rem[j] -= m
			if rem[j] != 0 {
				continue
			}
			counts[slot[j]] += acc[j]
			acc[j] = 0
			if cnt[j] > 0 {
				r := recs[off[j]]
				rem[j], thr[j], slot[j] = r.rem, r.thr, r.slot
				off[j]++
				cnt[j]--
			} else {
				rem[j], thr[j], slot[j] = sentinelRem, 0, 0
				active--
			}
		}
	}
}

// countStripes16Go and countStripes64Go run the portable walker over
// the wide argument blocks; they are the differential references for
// the AVX2 and AVX-512 kernels.
func countStripes16Go(w *walk16) {
	countStripesWideGo(w.recs, w.counts, w.off[:], w.cnt[:], w.st[:])
}

func countStripes64Go(w *walk64) {
	countStripesWideGo(w.recs, w.counts, w.off[:], w.cnt[:], w.st[:])
}
