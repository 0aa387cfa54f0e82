package rtlpower

// The lane walker is the parallel core of the reference estimator. A
// chunk of trace entries compiles (see StreamEstimator.compile) into
// segments — runs of RNG draws sharing one toggle threshold — laid end
// to end on the single conceptual xorshift32 draw chain. Compilation
// cuts that chain into one equal stripe per lane of the estimator's
// tier (8, 16 or 64, see kernel.go), takes each stripe's start state
// from JumpAhead, and clips segments at stripe boundaries into per-lane
// records, writing each lane's window straight into the walk's argument
// block. The walker advances all lanes together: the serial
// latency-bound xorshift recurrence becomes independent recurrences and
// the loop runs at ILP or SIMD speed. Every lane enumerates exactly the
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

// maxWalkLanes is the widest tier's lane count.
const maxWalkLanes = 64

// walkArgs is the argument block of one walk, at every tier: a walker
// of n lanes reads lanes 0 to n-1 and nothing past them. Lane j owns
// records recs[off[j] : off[j]+cnt[j]] and starts from state st[j]; the
// walker adds each record's toggle count into counts[rec.slot]. off and
// cnt are consumed in place; st is overwritten with the lanes' final
// states, which for lanes that drained early include sentinel idle
// draws — diagnostic only, chunk RNG continuity uses JumpAhead. Field
// offsets are hardcoded in lanes16_amd64.s and lanes64_amd64.s and
// pinned by TestWalk16Layout and TestWalk64Layout.
type walkArgs struct {
	recs   []laneRec
	counts []uint32
	off    [maxWalkLanes]uint32
	cnt    [maxWalkLanes]uint32
	st     [maxWalkLanes]uint32
}

// sentinelRem marks an exhausted lane. A chunk walks at most 2^30 draws
// (maxChunkDraws), so a sentinel can never decay below a live lane's
// remaining count.
const sentinelRem = ^uint32(0)

// countStripes8Go is the portable walker: the 8 lanes advance in
// lockstep rounds of m = min(remaining-in-current-record) draws, so the
// inner loop is 8 independent xorshift chains with branchless toggle
// counting and no per-draw bookkeeping. Exhausted lanes idle on a
// sentinel record with threshold 0 (counts nothing) until all lanes
// drain. It is the production walker off amd64, and on amd64 hosts
// without AVX2.
func countStripes8Go(w *walkArgs) {
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
