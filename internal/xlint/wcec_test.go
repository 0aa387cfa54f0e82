package xlint_test

import (
	"math"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/randprog"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
)

// tripCounter counts dynamic back-edge traversals from a streamed trace:
// a transition from the last pc of a term's source block to the term's
// header pc is one traversal.
type tripCounter struct {
	keys   map[[2]int]int // (latch last pc, header pc) -> term index
	counts []float64
	prev   int
}

func newTripCounter(cfg *xlint.CFG, terms []xlint.WCECTerm) *tripCounter {
	tc := &tripCounter{keys: make(map[[2]int]int), counts: make([]float64, len(terms)), prev: -1}
	for i, t := range terms {
		from := cfg.BlockAt(t.FromPC)
		tc.keys[[2]int{from.End - 1, t.HeaderPC}] = i
	}
	return tc
}

func (tc *tripCounter) Sink(batch []iss.TraceEntry) error {
	for i := range batch {
		pc := int(batch[i].PC)
		if tc.prev >= 0 {
			if idx, ok := tc.keys[[2]int{tc.prev, pc}]; ok {
				tc.counts[idx]++
			}
		}
		tc.prev = pc
	}
	return nil
}

// TestWCECBracketEveryWorkload is the acceptance criterion for the
// concrete bounds: for every registered workload the measured energy
// must satisfy BCEC ≤ measured ≤ WCEC, the dynamic back-edge traversal
// counts must lie inside the inferred trip intervals, and at least 90%
// of the corpus must get finite bounds at all.
func TestWCECBracketEveryWorkload(t *testing.T) {
	model := boundsModel()
	cfgP := procgen.Default()
	all := workloads.All()
	bounded := 0
	for _, w := range all {
		w := w
		var wasBounded bool
		t.Run(w.Name, func(t *testing.T) {
			proc, prog, err := w.Build(cfgP)
			if err != nil {
				t.Fatal(err)
			}
			rep := xlint.Analyze(prog, proc)
			wc, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, model)
			if err != nil {
				t.Fatal(err)
			}
			wasBounded = wc.Bounded

			tc := newTripCounter(rep.CFG, wc.Terms)
			res, err := iss.New(proc).Run(prog, iss.Options{TraceSink: tc.Sink})
			if err != nil {
				t.Fatal(err)
			}
			for i, term := range wc.Terms {
				k := tc.counts[i]
				if k < term.TripLo-eps || k > term.TripHi+eps {
					t.Errorf("back edge pc %d -> pc %d: dynamic trips %g outside inferred [%g, %g] (%s)",
						term.FromPC, term.HeaderPC, k, term.TripLo, term.TripHi, term.Source)
				}
			}

			actual, err := core.Extract(proc.TIE, &res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			est := model.EstimatePJ(actual)
			if est < wc.BCEC-eps {
				t.Errorf("measured %.3f pJ below BCEC %.3f pJ", est, wc.BCEC)
			}
			if est > wc.WCEC+eps {
				t.Errorf("measured %.3f pJ above WCEC %.3f pJ", est, wc.WCEC)
			}
		})
		if wasBounded {
			bounded++
		}
	}
	if frac := float64(bounded) / float64(len(all)); frac < 0.9 {
		t.Errorf("only %d/%d workloads (%.0f%%) got finite [BCEC, WCEC]; want >= 90%%",
			bounded, len(all), 100*frac)
	}
}

// TestWCECRandprogDifferential fuzzes the whole chain over generated
// programs: the abstract state must contain every register value the
// ISS runs an instruction with (the soundness oracle, regShadow), and
// when the run halts normally the measured energy must lie inside
// [BCEC, WCEC]. A run that fails does not deliver its last partial
// trace batch to the shadow; none of the 1200 programs fails at the
// cycle cap.
func TestWCECRandprogDifferential(t *testing.T) {
	const programs = 1200
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	model := boundsModel()
	sim := iss.New(proc)
	bounded := 0
	for seed := int64(1); seed <= programs; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		rep := xlint.Analyze(prog, proc)
		shadow := newRegShadow(proc, rep.Abs)
		res, runErr := sim.Run(prog, iss.Options{MaxCycles: 500_000, TraceSink: shadow.sink})
		if shadow.violation != nil {
			t.Fatalf("seed %d: abstract state violated: %v", seed, shadow.violation)
		}
		if runErr != nil {
			continue // runaway or faulting program: no halting-energy claim
		}
		wc, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, model)
		if err != nil {
			continue // e.g. no acyclic entry->exit path
		}
		actual, err := core.Extract(proc.TIE, &res.Stats)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		est := model.EstimatePJ(actual)
		if est < wc.BCEC-eps || est > wc.WCEC+eps {
			t.Fatalf("seed %d: measured %.3f pJ outside [BCEC %.3f, WCEC %.3f]",
				seed, est, wc.BCEC, wc.WCEC)
		}
		if wc.Bounded {
			bounded++
		}
	}
	// The generator's loops are exact constant-count decrements; the vast
	// majority must come out finite or the trip engine regressed.
	if bounded < programs/2 {
		t.Errorf("only %d/%d random programs got finite bounds", bounded, programs)
	}
}

// TestWCECUnboundedIsHonest: a data-dependent loop (trip count driven by
// a loaded value) must report Bounded == false, never a wrong finite
// bound.
func TestWCECUnboundedIsHonest(t *testing.T) {
	rep, proc, _ := analyzeAsm(t, `
    movi a2, 0x100
    l32i a3, a2, 0
top:
    addi a3, a3, -1
    bnez a3, top
    ret
`)
	wc, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, unitModel())
	if err != nil {
		t.Fatal(err)
	}
	if wc.Bounded {
		t.Errorf("data-dependent loop reported bounded: %+v", wc)
	}
	if !math.IsInf(wc.WCEC, 1) {
		t.Errorf("WCEC = %g, want +Inf", wc.WCEC)
	}
}
