package rtlpower

import (
	"context"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// mixedRun builds mixedSrc on the default processor and records its
// trace.
func mixedRun(t *testing.T) (*procgen.Processor, *iss.Program, []iss.TraceEntry) {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := RecordTrace(t, proc, prog)
	return proc, prog, trace
}

// TestRingSimulatorWalkPanic breaks a compiled slot's schedule so that
// walking it panics, lets the simulator's side of the ring walk it, and
// requires the consumer's side to report the panic as a FaultPanic when
// it reaches the slot.
func TestRingSimulatorWalkPanic(t *testing.T) {
	proc, _, trace := mixedRun(t)
	e, err := New(proc, FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	// The portable walker bounds-checks its counts; the assembly tiers
	// would write past them instead of panicking.
	if e, err = e.WithKernel(KernelPortable); err != nil {
		t.Fatal(err)
	}
	r := newRing(e.Stream())
	sl, err := r.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batch := trace[:iss.TraceBatchSize]
	if !r.fill(sl, batch, r.st.chunkDraws(batch)) {
		t.Fatalf("compiling the batch failed: %v", sl.err)
	}
	sl.sc.counts = sl.sc.counts[:0]
	if !r.help() {
		t.Fatal("the simulator's side found no compiled slot to walk")
	}
	err = r.settle(sl, true)
	if f, ok := iss.AsFault(err); !ok || f.Kind != iss.FaultPanic {
		t.Fatalf("want a panic fault, got %v", err)
	}
}

// TestRunStreamedCancelledAttach pins the contract perfbench's traced
// replay relies on: under an already-cancelled context RunStreamed
// returns the cancelled fault having only attached the program's plan,
// and the stream then prices the trace through Consume exactly as a
// fresh one would.
func TestRunStreamedCancelledAttach(t *testing.T) {
	proc, prog, trace := mixedRun(t)
	e, err := New(proc, FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stream()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunStreamed(ctx, iss.New(proc), prog, iss.Options{}, st)
	if f, ok := iss.AsFault(err); !ok || f.Kind != iss.FaultCancelled {
		t.Fatalf("want a cancelled fault, got %v", err)
	}
	if st.pl == nil || st.pl != prog.Plan(proc.TIE) {
		t.Error("RunStreamed did not attach the program's plan")
	}
	if st.entries != 0 || st.cycles != 0 {
		t.Fatalf("a cancelled RunStreamed consumed %d entries, %d cycles", st.entries, st.cycles)
	}
	for lo := 0; lo < len(trace); lo += iss.TraceBatchSize {
		if err := st.Consume(trace[lo:min(lo+iss.TraceBatchSize, len(trace))]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	compareStreamRun(t, got, want, nil, nil)
}

// TestRunStreamedSequentialBarrier sends a run of batches in the middle
// of a pipelined stream down the sequential path, as a chunk over the
// lane walk's draw cap would go, while earlier chunks are still in
// flight: the simulator's goroutine waits for them to be folded, runs
// the batch itself, and the ring resumes. Report and OnEntry calls
// match serial Consume's bit for bit.
func TestRunStreamedSequentialBarrier(t *testing.T) {
	proc, prog, trace := mixedRun(t)
	for _, k := range SupportedKernels() {
		t.Run(k.String(), func(t *testing.T) {
			wantRep, wantRecs := streamRun(t, proc, trace, k, false)
			e, err := New(proc, FastTechnology())
			if err != nil {
				t.Fatal(err)
			}
			if e, err = e.WithKernel(k); err != nil {
				t.Fatal(err)
			}
			st := e.Stream()
			var recs []onEntryRec
			st.OnEntry = func(idx int, cycles uint64, pj float64) {
				recs = append(recs, onEntryRec{idx, cycles, pj})
			}
			// InjectFault runs on the simulator's goroutine before each
			// instruction, where the sink reads forceSeq.
			opts := iss.Options{InjectFault: func(_ int, cycle uint64) *iss.Fault {
				st.forceSeq = cycle >= 1000 && cycle < 2500
				return nil
			}}
			if _, err := RunStreamed(context.Background(), iss.New(proc), prog, opts, st); err != nil {
				t.Fatal(err)
			}
			gotRep, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			compareStreamRun(t, gotRep, wantRep, recs, wantRecs)
		})
	}
}
