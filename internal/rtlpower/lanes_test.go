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

// TestWalk16Layout pins the struct layout lanes16_amd64.s hardcodes,
// and the 12-byte laneRec both AVX kernels index.
func TestWalk16Layout(t *testing.T) {
	skipOn32Bit(t)
	var w walk16
	if got := unsafe.Sizeof(laneRec{}); got != 12 {
		t.Errorf("sizeof(laneRec) = %d, want 12", got)
	}
	offs := []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"recs", unsafe.Offsetof(w.recs), 0},
		{"counts", unsafe.Offsetof(w.counts), 24},
		{"off", unsafe.Offsetof(w.off), 48},
		{"cnt", unsafe.Offsetof(w.cnt), 112},
		{"st", unsafe.Offsetof(w.st), 176},
	}
	for _, o := range offs {
		if o.got != o.want {
			t.Errorf("offsetof(walk16.%s) = %d, want %d", o.name, o.got, o.want)
		}
	}
}

// TestWalk64Layout pins the struct layout lanes64_amd64.s hardcodes.
func TestWalk64Layout(t *testing.T) {
	skipOn32Bit(t)
	var w walk64
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
			t.Errorf("offsetof(walk64.%s) = %d, want %d", o.name, o.got, o.want)
		}
	}
}

// walkOracle advances each lane's record runs on the scalar chain,
// mirroring the walk8 contract one lane at a time.
func walkOracle(w *walk8) {
	for j := 0; j < 8; j++ {
		st := w.st[j]
		for k := uint32(0); k < w.cnt[j]; k++ {
			r := w.recs[w.off[j]+k]
			for d := uint32(0); d < r.rem; d++ {
				st = xorshiftStep(st)
				if st < r.thr {
					w.counts[r.slot]++
				}
			}
		}
		w.st[j] = st
	}
}

// randomWalk builds a walk8 with lanes of random record runs laid out
// contiguously, including empty lanes and extreme thresholds.
func randomWalk(rng *rand.Rand, nslots int) *walk8 {
	w := &walk8{counts: make([]uint32, nslots)}
	for j := 0; j < 8; j++ {
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
				slot: uint32(rng.Intn(nslots)),
			})
		}
	}
	return w
}

func cloneWalk(w *walk8) *walk8 {
	c := *w
	c.recs = append([]laneRec(nil), w.recs...)
	c.counts = make([]uint32, len(w.counts))
	copy(c.counts, w.counts)
	return &c
}

// TestCountStripes8MatchesOracle differentially tests the portable
// lockstep walker against the one-lane-at-a-time scalar oracle, on
// random walks including empty lanes, shared slots, and boundary
// thresholds.
func TestCountStripes8MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		w := randomWalk(rng, 1+rng.Intn(6))
		want := cloneWalk(w)
		walkOracle(want)

		got := cloneWalk(w)
		countStripes8Go(got)
		compareWalk(t, "countStripes8Go", trial, want, got)
	}
}

func compareWalk(t *testing.T, impl string, trial int, want, got *walk8) {
	t.Helper()
	for i := range want.counts {
		if got.counts[i] != want.counts[i] {
			t.Fatalf("trial %d: %s counts[%d] = %d, want %d", trial, impl, i, got.counts[i], want.counts[i])
		}
	}
	// Exit states are not compared: lanes that drain early keep
	// drawing on their sentinel record until every lane finishes, so
	// w.st is diagnostic only (chunk RNG continuity uses JumpAhead).
}

// wideOracle advances each lane of a generic (off/cnt/st slice) walk on
// the scalar chain, one lane at a time — the width-generic walkOracle.
func wideOracle(recs []laneRec, counts []uint32, off, cnt, st []uint32) {
	for j := range off {
		s := st[j]
		for k := uint32(0); k < cnt[j]; k++ {
			r := recs[off[j]+k]
			for d := uint32(0); d < r.rem; d++ {
				s = xorshiftStep(s)
				if s < r.thr {
					counts[r.slot]++
				}
			}
		}
		st[j] = s
	}
}

// randomLanes fills width lanes of random record runs laid out
// contiguously, including empty lanes and extreme thresholds.
func randomLanes(rng *rand.Rand, nslots, width int, off, cnt, st []uint32) []laneRec {
	var recs []laneRec
	for j := 0; j < width; j++ {
		nrec := rng.Intn(5)
		if rng.Intn(8) == 0 {
			nrec = 0 // empty lane: starts and stays on the sentinel
		}
		off[j] = uint32(len(recs))
		cnt[j] = uint32(nrec)
		st[j] = rng.Uint32() | 1
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
			recs = append(recs, laneRec{
				thr:  thr,
				rem:  uint32(rng.Intn(700) + 1),
				slot: uint32(rng.Intn(nslots)),
			})
		}
	}
	return recs
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

// TestCountStripes16MatchesOracle differentially tests the 16-lane
// walkers — the portable wide walker always, and the AVX2 kernel when
// this host can run it — against the one-lane-at-a-time scalar oracle.
func TestCountStripes16MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		nslots := 1 + rng.Intn(6)
		w := &walk16{counts: make([]uint32, nslots)}
		w.recs = randomLanes(rng, nslots, 16, w.off[:], w.cnt[:], w.st[:])

		want := make([]uint32, nslots)
		wideOracle(w.recs, want, append([]uint32(nil), w.off[:]...), append([]uint32(nil), w.cnt[:]...), append([]uint32(nil), w.st[:]...))

		gotGo := *w
		gotGo.counts = make([]uint32, nslots)
		countStripes16Go(&gotGo)
		compareCounts(t, "countStripes16Go", trial, want, gotGo.counts)

		if kernelSupported(KernelAVX2) {
			gotAsm := *w
			gotAsm.counts = make([]uint32, nslots)
			countStripes16(&gotAsm)
			compareCounts(t, "countStripes16AVX2", trial, want, gotAsm.counts)
		}
	}
}

// TestCountStripes64MatchesOracle is the 64-lane (AVX-512) twin.
func TestCountStripes64MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		nslots := 1 + rng.Intn(6)
		w := &walk64{counts: make([]uint32, nslots)}
		w.recs = randomLanes(rng, nslots, 64, w.off[:], w.cnt[:], w.st[:])

		want := make([]uint32, nslots)
		wideOracle(w.recs, want, append([]uint32(nil), w.off[:]...), append([]uint32(nil), w.cnt[:]...), append([]uint32(nil), w.st[:]...))

		gotGo := *w
		gotGo.counts = make([]uint32, nslots)
		countStripes64Go(&gotGo)
		compareCounts(t, "countStripes64Go", trial, want, gotGo.counts)

		if kernelSupported(KernelAVX512) {
			gotAsm := *w
			gotAsm.counts = make([]uint32, nslots)
			countStripes64(&gotAsm)
			compareCounts(t, "countStripes64AVX512", trial, want, gotAsm.counts)
		}
	}
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
// st, into a schedule of lanes stripes, as compile does with an entry
// that crosses stripe boundaries.
func compileSegs(segs []testSeg, lanes int, st uint32) *schedule {
	var total uint64
	for _, g := range segs {
		total += uint64(g.draws)
	}
	sc := &schedule{}
	sc.begin(1, len(segs), lanes, st, total)
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
		for k := uint32(0); k < g.draws; k++ {
			state = xorshiftStep(state)
			if state < g.thr {
				out[i]++
			}
		}
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
		sc := compileSegs(segs, lanes, seed)
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
