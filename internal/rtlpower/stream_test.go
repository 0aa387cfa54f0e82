package rtlpower_test

import (
	"context"
	"fmt"
	"testing"

	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// reportsIdentical requires bit-identical reports: the streaming
// estimator performs exactly the same float operations in the same
// order as the materialized walk, so even == on floats must hold.
func reportsIdentical(t *testing.T, want, got rtlpower.Report) {
	t.Helper()
	if got.TotalPJ != want.TotalPJ {
		t.Errorf("TotalPJ = %v, want %v (bit-identical)", got.TotalPJ, want.TotalPJ)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("Cycles = %d, want %d", got.Cycles, want.Cycles)
	}
	if len(got.PerBlockPJ) != len(want.PerBlockPJ) {
		t.Fatalf("PerBlockPJ length %d, want %d", len(got.PerBlockPJ), len(want.PerBlockPJ))
	}
	for i := range want.PerBlockPJ {
		if got.PerBlockPJ[i] != want.PerBlockPJ[i] {
			t.Errorf("PerBlockPJ[%d] = %v, want %v (bit-identical)", i, got.PerBlockPJ[i], want.PerBlockPJ[i])
		}
	}
}

// TestStreamEquivalence asserts that for every built-in workload the
// streaming estimator — fed the trace in ragged batches — produces a
// Report bit-identical to EstimateTrace under the same technology seed,
// and that the fully streamed path (RunStreamed, where the ISS and the
// estimator overlap through the bounded batch channel) matches too.
func TestStreamEquivalence(t *testing.T) {
	cfg := procgen.Default()
	tech := rtlpower.FastTechnology()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			proc, prog, err := w.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			trace, _ := rtlpower.RecordTrace(t, proc, prog)

			eRef, err := rtlpower.New(proc, tech)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eRef.EstimateTrace(trace)
			if err != nil {
				t.Fatal(err)
			}

			// Incremental consumption in deliberately ragged batch sizes:
			// batch boundaries must not affect the estimate.
			eStream, err := rtlpower.New(proc, tech)
			if err != nil {
				t.Fatal(err)
			}
			st := eStream.Stream()
			for i, n := 0, 1; i < len(trace); i, n = i+n, n%97+3 {
				end := i + n
				if end > len(trace) {
					end = len(trace)
				}
				if err := st.Consume(trace[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			reportsIdentical(t, want, got)

			// End-to-end streamed run: fresh simulator feeding the
			// estimator through the bounded batch channel.
			eProg, err := rtlpower.New(proc, tech)
			if err != nil {
				t.Fatal(err)
			}
			gotProg, resProg, err := eProg.EstimateProgram(context.Background(), prog, iss.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reportsIdentical(t, want, gotProg)
			if resProg.Stats.Cycles != gotProg.Cycles {
				t.Errorf("Stats.Cycles %d != Report.Cycles %d", resProg.Stats.Cycles, gotProg.Cycles)
			}
		})
	}
}

// TestTraceSinkBatching checks the ISS side of the pipeline: the sink
// sees every retired instruction exactly once, in batches of at most
// TraceBatchSize, so the entry count equals Stats.Retired and the
// entries' cycles sum to Stats.Cycles.
func TestTraceSinkBatching(t *testing.T) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	var entries, cycles uint64
	batches := 0
	res, err := iss.New(proc).Run(prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		if len(batch) == 0 || len(batch) > iss.TraceBatchSize {
			t.Fatalf("batch of %d entries", len(batch))
		}
		batches++
		entries += uint64(len(batch))
		for i := range batch {
			cycles += uint64(batch[i].Cycles)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if entries != res.Stats.Retired {
		t.Fatalf("streamed %d entries, %d retired", entries, res.Stats.Retired)
	}
	if cycles != res.Stats.Cycles {
		t.Fatalf("streamed entries sum to %d cycles, Stats.Cycles is %d", cycles, res.Stats.Cycles)
	}
	if want := (entries + iss.TraceBatchSize - 1) / iss.TraceBatchSize; uint64(batches) != want {
		t.Fatalf("sink called %d times, want %d", batches, want)
	}
}

// TestStreamConsumeAllocationFree pins the hot path: once a stream is
// set up, consuming batches allocates nothing, which is what makes the
// pipeline O(1) in retired-instruction count.
func TestStreamConsumeAllocationFree(t *testing.T) {
	proc, trace, _ := runTrace(t, loopSrc, nil)
	e, err := rtlpower.New(proc, testTech())
	if err != nil {
		t.Fatal(err)
	}
	batch := trace
	if len(batch) > iss.TraceBatchSize {
		batch = batch[:iss.TraceBatchSize]
	}
	st := e.Stream()
	if avg := testing.AllocsPerRun(20, func() {
		if err := st.Consume(batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Consume allocates %v objects per call, want 0", avg)
	}
}

// BenchmarkStreamEstimatorMemory demonstrates that the streaming path's
// heap usage is independent of instruction count: allocs/op stays at
// the fixed stream-setup cost whether an op consumes 1k or 100k
// instructions (run with -benchmem).
func BenchmarkStreamEstimatorMemory(b *testing.B) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		b.Fatal(err)
	}
	batch, _ := rtlpower.RecordTrace(b, proc, prog)
	if len(batch) > iss.TraceBatchSize {
		batch = batch[:iss.TraceBatchSize]
	}
	e, err := rtlpower.New(proc, rtlpower.FastTechnology())
	if err != nil {
		b.Fatal(err)
	}
	for _, instrs := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("instrs=%d", instrs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := e.Stream()
				for consumed := 0; consumed < instrs; consumed += len(batch) {
					if err := st.Consume(batch); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := st.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
