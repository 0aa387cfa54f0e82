package rtlpower

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// skipOn32Bit skips the layout pins where pointers are 4 bytes: the
// pinned offsets are the 64-bit assembly's, and no walker assembly is
// built for 32-bit targets.
func skipOn32Bit(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pins hold for 64-bit targets only")
	}
}

// TestWalk16Layout pins the walkArgs layout lanes16_amd64.s hardcodes,
// and the 12-byte laneRec both AVX kernels index.
func TestWalk16Layout(t *testing.T) {
	skipOn32Bit(t)
	if got := unsafe.Sizeof(laneRec{}); got != 12 {
		t.Errorf("sizeof(laneRec) = %d, want 12", got)
	}
	checkWalkArgsLayout(t)
}

// TestWalk64Layout pins the walkArgs layout lanes64_amd64.s hardcodes.
func TestWalk64Layout(t *testing.T) {
	skipOn32Bit(t)
	checkWalkArgsLayout(t)
}

// checkWalkArgsLayout checks the walkArgs field offsets. Both AVX
// kernels read the one block at these offsets.
func checkWalkArgsLayout(t *testing.T) {
	t.Helper()
	var w walkArgs
	offs := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"recs", unsafe.Offsetof(w.recs), 0},
		{"counts", unsafe.Offsetof(w.counts), 24},
		{"off", unsafe.Offsetof(w.off), 48},
		{"cnt", unsafe.Offsetof(w.cnt), 304},
		{"st", unsafe.Offsetof(w.st), 560},
	}
	for _, o := range offs {
		if o.got != o.want {
			t.Errorf("offsetof(walkArgs.%s) = %d, want %d", o.name, o.got, o.want)
		}
	}
}

// countStripesWideGo is the portable lockstep walker at any lane width
// up to maxWalkLanes: the width-generic twin of countStripes8Go and the
// reference for the wide tiers' kernels. Within a round the lanes
// advance sequentially instead of interleaved, which changes nothing
// observable — per-lane chains are independent and counts are integers.
func countStripesWideGo(w *walkArgs, lanes int) {
	var rem, thr, acc, slot [maxWalkLanes]uint32
	active := 0
	for j := 0; j < lanes; j++ {
		rem[j] = sentinelRem
		if w.cnt[j] > 0 {
			r := w.recs[w.off[j]]
			rem[j], thr[j], slot[j] = r.rem, r.thr, r.slot
			w.off[j]++
			w.cnt[j]--
			active++
		}
	}
	for active > 0 {
		m := rem[0]
		for j := 1; j < lanes; j++ {
			if rem[j] < m {
				m = rem[j]
			}
		}
		for j := 0; j < lanes; j++ {
			s := w.st[j]
			t := uint64(thr[j])
			c := uint32(0)
			for i := uint32(0); i < m; i++ {
				s ^= s << 13
				s ^= s >> 17
				s ^= s << 5
				c += uint32((uint64(s) - t) >> 63)
			}
			w.st[j] = s
			acc[j] += c
		}
		for j := 0; j < lanes; j++ {
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
}

// wideOracle advances lanes 0 to lanes-1 of w on the scalar chain, one
// lane at a time.
func wideOracle(w *walkArgs, lanes int) {
	for j := 0; j < lanes; j++ {
		s := w.st[j]
		for k := uint32(0); k < w.cnt[j]; k++ {
			r := w.recs[w.off[j]+k]
			for d := uint32(0); d < r.rem; d++ {
				s = xorshiftStep(s)
				if s < r.thr {
					w.counts[r.slot]++
				}
			}
		}
		w.st[j] = s
	}
}

// randomWalk builds a walk of lanes lanes of random record runs, laid
// out contiguously, into 1 to 6 counts slots, including empty lanes,
// shared slots and extreme thresholds.
func randomWalk(rng *rand.Rand, lanes int) *walkArgs {
	w := &walkArgs{counts: make([]uint32, 1+rng.Intn(6))}
	for j := 0; j < lanes; j++ {
		nrec := rng.Intn(5)
		if rng.Intn(8) == 0 {
			nrec = 0 // empty lane: starts and stays on the sentinel
		}
		w.off[j] = uint32(len(w.recs))
		w.cnt[j] = uint32(nrec)
		w.st[j] = rng.Uint32() | 1
		for k := 0; k < nrec; k++ {
			var thr uint32
			switch rng.Intn(5) {
			case 0:
				thr = 0 // never toggles
			case 1:
				thr = ^uint32(0) // toggles on everything but ^0 itself
			default:
				thr = rng.Uint32()
			}
			w.recs = append(w.recs, laneRec{
				thr:  thr,
				rem:  uint32(rng.Intn(700) + 1),
				slot: uint32(rng.Intn(len(w.counts))),
			})
		}
	}
	return w
}

// walkedCounts runs walk on a copy of w with zeroed counts and returns
// them. Exit states are not compared: lanes that drain early keep
// drawing on their sentinel record until every lane finishes, so st is
// diagnostic only (chunk RNG continuity uses JumpAhead).
func walkedCounts(w *walkArgs, walk func(*walkArgs)) []uint32 {
	c := *w
	c.counts = make([]uint32, len(w.counts))
	walk(&c)
	return c.counts
}

// TestCountStripes8MatchesOracle differentially tests the portable
// lockstep walker against the one-lane-at-a-time scalar oracle, on
// random walks including empty lanes, shared slots, and boundary
// thresholds.
func TestCountStripes8MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		w := randomWalk(rng, 8)
		want := walkedCounts(w, func(w *walkArgs) { wideOracle(w, 8) })
		compareCounts(t, "countStripes8Go", trial, want, walkedCounts(w, countStripes8Go))
	}
}

// TestCountStripesWideMatchesOracle differentially tests the wide tiers
// against the one-lane-at-a-time scalar oracle at each tier's width:
// the test-only countStripesWideGo always, and the tier's walker from
// the walkers table when this host runs it.
func TestCountStripesWideMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		k    Kernel
		seed int64
	}{{KernelAVX2, 17}, {KernelAVX512, 23}} {
		t.Run(tc.k.String(), func(t *testing.T) {
			lanes := tc.k.width()
			rng := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < 300; trial++ {
				w := randomWalk(rng, lanes)
				want := walkedCounts(w, func(w *walkArgs) { wideOracle(w, lanes) })
				got := walkedCounts(w, func(w *walkArgs) { countStripesWideGo(w, lanes) })
				compareCounts(t, "countStripesWideGo", trial, want, got)
				if kernelSupported(tc.k) {
					compareCounts(t, tc.k.String()+" walker", trial, want, walkedCounts(w, walkers[tc.k]))
				}
			}
		})
	}
}

// kernelSupported reports whether the dispatch ladder can run tier k on
// this host.
func kernelSupported(k Kernel) bool {
	for _, s := range SupportedKernels() {
		if s == k {
			return true
		}
	}
	return false
}

func compareCounts(t *testing.T, impl string, trial int, want, got []uint32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trial %d: %s counts[%d] = %d, want %d", trial, impl, i, got[i], want[i])
		}
	}
}

// testSeg is one draw segment of a hand-built chunk.
type testSeg struct{ thr, draws uint32 }

// compileSegs clips segs, laid end to end on the draw chain from state
// st, into a schedule of tier k's stripes, as compile does with an
// entry that crosses stripe boundaries.
func compileSegs(segs []testSeg, k Kernel, st uint32) *schedule {
	var total uint64
	for _, g := range segs {
		total += uint64(g.draws)
	}
	sc := &schedule{}
	sc.begin(1, len(segs), k, st, total)
	for i, g := range segs {
		sc.recs = append(sc.recs, laneRec{thr: g.thr, rem: g.draws, slot: uint32(i)})
	}
	sc.nseg = len(segs)
	sc.clipFrom(0)
	sc.total = total
	sc.end()
	return sc
}

// seqScheduleCounts is the sequential oracle for a whole chunk: one
// scalar chain through every segment in order.
func seqScheduleCounts(state uint32, segs []testSeg) ([]uint32, uint32) {
	out := make([]uint32, len(segs))
	for i, g := range segs {
		n := uint32(0)
		for k := uint32(0); k < g.draws; k++ {
			state = xorshiftStep(state)
			if state < g.thr {
				n++
			}
		}
		out[i] = n
	}
	return out, state
}

// checkChunkWalks compiles segs for every tier this host can run — not
// just the default dispatch — and requires each walk to reproduce the
// sequential chain exactly: per-segment counts, and the exit state
// compile jumps the stream's RNG to.
func checkChunkWalks(t *testing.T, label string, segs []testSeg, seed uint32) {
	t.Helper()
	want, wantState := seqScheduleCounts(seed, segs)
	for _, k := range SupportedKernels() {
		lanes := k.width()
		sc := compileSegs(segs, k, seed)
		sc.walk()
		for i := range want {
			if sc.counts[i] != want[i] {
				t.Fatalf("%s (%d lanes): counts[%d] = %d, want %d", label, lanes, i, sc.counts[i], want[i])
			}
		}
		if got := JumpAhead(seed, sc.total); got != wantState {
			t.Fatalf("%s (%d lanes): exit state %#x, want %#x", label, lanes, got, wantState)
		}
	}
}

// TestCountChunkLanesMatchesSequential checks the full chunk walk —
// stripe clipping, jump-ahead start states and the lane kernels — against
// the sequential chain on random chunks: identical per-segment counts
// and identical exit RNG state. A third of the chunks are runs of 1 to
// 3 draws, most of them fewer draws in all than the widest tier has
// lanes, so that leading stripes stay empty.
func TestCountChunkLanesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		maxDraws := 3000
		if trial%3 == 0 {
			maxDraws = 3
		}
		segs := make([]testSeg, 1+rng.Intn(40))
		for i := range segs {
			var thr uint32
			switch rng.Intn(4) {
			case 0:
				thr = 0
			default:
				thr = rng.Uint32()
			}
			segs[i] = testSeg{thr: thr, draws: uint32(1 + rng.Intn(maxDraws))}
		}
		checkChunkWalks(t, fmt.Sprintf("trial %d", trial), segs, rng.Uint32()|1)
	}
}

// TestCountChunkLanesAtDrawCap walks a chunk of exactly maxChunkDraws
// (2^30) draws, the cap every kernel's sentinel argument rests on, on
// every supported tier against the sequential chain. Its records are
// uneven, so lanes drain in different rounds, and the last one is cut
// to the draws left. 2^30 splits evenly into 8, 16 and 64 stripes, so
// the last stripe's remainder is empty here; the smaller chunks of
// TestCountChunkLanesMatchesSequential cover the uneven split.
func TestCountChunkLanesAtDrawCap(t *testing.T) {
	if testing.Short() {
		t.Skip("walks 2^30 draws on the scalar chain and on every tier")
	}
	rng := rand.New(rand.NewSource(31))
	var segs []testSeg
	for left := uint32(maxChunkDraws); left > 0; {
		d := min(uint32(1+rng.Intn(1<<25)), left)
		segs = append(segs, testSeg{thr: rng.Uint32(), draws: d})
		left -= d
	}
	checkChunkWalks(t, "draw cap", segs, rng.Uint32()|1)
}

// exhaustWalk lays out a walk of lanes lanes for
// TestWalkersOutlastExhaustedLanes. Lane long walks 2^22 draws in one
// record (no lane does when long is -1), lane long+1 has no records,
// and every other lane j drains after j+1 draws, in one record or, for
// odd j, two. It returns the walk and its longest lane's draws.
func exhaustWalk(lanes, long int) (*walkArgs, uint64) {
	w := &walkArgs{counts: make([]uint32, 2)}
	var most uint64
	for j := 0; j < lanes; j++ {
		w.off[j], w.st[j] = uint32(len(w.recs)), uint32(2*j+1)
		switch {
		case j == long:
			w.recs = append(w.recs, laneRec{thr: 0x9E3779B9, rem: 1 << 22})
		case j == (long+1)%lanes:
			continue
		case j%2 == 1:
			w.recs = append(w.recs, laneRec{thr: 0x40000000, rem: 1, slot: 1})
			w.recs = append(w.recs, laneRec{thr: 0xC0000000, rem: uint32(j), slot: 1})
		default:
			w.recs = append(w.recs, laneRec{thr: 0x80000000, rem: uint32(j + 1), slot: 1})
		}
		w.cnt[j] = uint32(len(w.recs)) - w.off[j]
		var n uint64
		for _, r := range w.recs[w.off[j]:] {
			n += uint64(r.rem)
		}
		most = max(most, n)
	}
	return w, most
}

// TestWalkersOutlastExhaustedLanes walks one lane of 2^22 draws beside
// lanes that drain after a few draws, and one lane that has none, with
// the long lane first, in the middle and last, on every supported
// tier's walker. The short lanes idle on their exhausted-lane sentinel
// while the long lane walks on, so a sentinel that decays within 2^22
// draws makes an exhausted lane look live again. Their lengths differ,
// so such sentinels would come due one at a time. A fourth walk has no
// long lane. The counts must match the scalar oracle, and every exit
// state must be its start advanced by the longest lane's draws: an
// idle lane walks until the longest lane drains, and no further. The
// sentinels' full margin, a live lane 2^30 draws (maxChunkDraws)
// longer than an exhausted one, stays untested.
func TestWalkersOutlastExhaustedLanes(t *testing.T) {
	for _, k := range SupportedKernels() {
		lanes := k.width()
		for _, long := range []int{-1, 0, lanes / 2, lanes - 1} {
			w, most := exhaustWalk(lanes, long)
			label := fmt.Sprintf("%s walker, long lane %d", k, long)
			want := walkedCounts(w, func(w *walkArgs) { wideOracle(w, lanes) })
			got := *w
			got.counts = make([]uint32, len(w.counts))
			walkers[k](&got)
			compareCounts(t, label, 0, want, got.counts)
			for j := 0; j < lanes; j++ {
				if st := JumpAhead(w.st[j], most); got.st[j] != st {
					t.Fatalf("%s: lane %d exit state %#x, want %#x (its start after %d draws)", label, j, got.st[j], st, most)
				}
			}
		}
	}
}
