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

// portableStream is a fresh stream for proc on the portable walker,
// which bounds-checks what it reads and writes: the assembly tiers
// would run past a broken schedule instead of panicking.
func portableStream(t *testing.T, proc *procgen.Processor) *StreamEstimator {
	t.Helper()
	e, err := New(proc, FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithKernel(KernelPortable); err != nil {
		t.Fatal(err)
	}
	return e.Stream()
}

// fillRing sends the first ringSize batches of trace through the sink
// of a ring whose consumer goroutine is not running, so that every
// slot is held by the time the last one is filled, and returns the
// slots in trace order.
func fillRing(t *testing.T, r *ring, trace []iss.TraceEntry) []*slot {
	t.Helper()
	var sent []*slot
	for i := 0; i < ringSize; i++ {
		if err := r.sink(context.Background(), trace[i*iss.TraceBatchSize:(i+1)*iss.TraceBatchSize]); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		sent = append(sent, <-r.ready)
	}
	return sent
}

// settleRing settles sent in order, as the consumer goroutine does, and
// requires the stream to match serial Consume calls on the same batches
// bit for bit.
func settleRing(t *testing.T, proc *procgen.Processor, r *ring, sent []*slot, trace []iss.TraceEntry) {
	t.Helper()
	for i, sl := range sent {
		if err := r.settle(sl); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	got, err := r.st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	serial := portableStream(t, proc)
	if err := serial.Consume(trace[:ringSize*iss.TraceBatchSize]); err != nil {
		t.Fatal(err)
	}
	want, err := serial.Finish()
	if err != nil {
		t.Fatal(err)
	}
	compareStreamRun(t, got, want, nil, nil)
}

// TestRingHandOff pins who walks a slot: with another slot free, the
// sink hands a compiled slot over unwalked, for the consumer to walk;
// with every other slot held, it walks the slot before sending it.
func TestRingHandOff(t *testing.T) {
	proc, _, trace := mixedRun(t)
	r := newRing(portableStream(t, proc))
	sent := fillRing(t, r, trace)
	for i, sl := range sent {
		if want := i == ringSize-1; sl.walked != want {
			t.Errorf("slot %d sent with walked %v and %d slots free after it, want walked %v",
				i, sl.walked, ringSize-1-i, want)
		}
	}
	settleRing(t, proc, r, sent, trace)
}

// TestRingWalkedSlotNotWalkedAgain breaks the schedule of the slot the
// simulator's side walked, after that walk: a second walk would clear
// its counts and, its lane windows consumed, count nothing, or index
// past its records and panic, so the consumer's side must fold the
// slot as it came.
func TestRingWalkedSlotNotWalkedAgain(t *testing.T) {
	proc, _, trace := mixedRun(t)
	r := newRing(portableStream(t, proc))
	sent := fillRing(t, r, trace)
	last := sent[ringSize-1]
	if !last.walked {
		t.Fatal("the simulator's side did not walk the last free slot")
	}
	last.sc.recs = last.sc.recs[:0]
	settleRing(t, proc, r, sent, trace)
}

// TestRingSimulatorWalkPanic breaks a compiled slot's schedule so that
// walking it panics, fills it as the last free slot so that the
// simulator's side walks it, and requires the consumer's side to fold
// the slots before it and then report the panic as a FaultPanic.
func TestRingSimulatorWalkPanic(t *testing.T) {
	proc, _, trace := mixedRun(t)
	r := newRing(portableStream(t, proc))
	for i := 0; i < ringSize; i++ {
		sl := <-r.free
		batch := trace[i*iss.TraceBatchSize : (i+1)*iss.TraceBatchSize]
		if !r.fill(sl, batch, r.st.chunkDraws(batch)) {
			t.Fatalf("compiling batch %d failed: %v", i, sl.err)
		}
		if i == ringSize-1 {
			sl.sc.counts = sl.sc.counts[:0]
		}
		r.handOff(sl)
		if i == ringSize-1 && sl.err == nil {
			t.Fatal("the simulator's side sent the broken slot without a walk panic")
		}
	}
	for i := 0; i < ringSize; i++ {
		err := r.settle(<-r.ready)
		if i < ringSize-1 {
			if err != nil {
				t.Fatalf("slot %d before the broken one: %v", i, err)
			}
			continue
		}
		if f, ok := iss.AsFault(err); !ok || f.Kind != iss.FaultPanic {
			t.Fatalf("want a panic fault, got %v", err)
		}
	}
	if want := uint64((ringSize - 1) * iss.TraceBatchSize); r.st.entries != want {
		t.Errorf("%d entries folded before the panic, want %d", r.st.entries, want)
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
