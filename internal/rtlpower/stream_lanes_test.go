package rtlpower

import (
	"errors"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// mixedSrc exercises every structural block class — loads, stores,
// multiply, shifts, ALU, branches — so the differential run covers
// active and idle segments of all blocks. (workloads would be the
// natural source here but would import-cycle back into rtlpower.)
const mixedSrc = `start:
    movi a2, 300
    movi a3, 0x1000
    movi a4, 12345
    movi a12, 0
loop:
    l32i a5, a3, 0
    add a5, a5, a4
    mul a6, a5, a4
    srli a7, a6, 3
    xor a12, a12, a7
    s32i a7, a3, 4
    slli a4, a4, 1
    addi a4, a4, 7
    addi a2, a2, -1
    bnez a2, loop
    movi a6, 0x2000
    s32i a12, a6, 0
    ret
.data 0x1000
    .word 0xdeadbeef
    .word 0
`

type onEntryRec struct {
	idx    int
	cycles uint64
	pj     float64
}

// streamRun consumes trace through a fresh StreamEstimator on walker
// tier k in ragged batches, recording every OnEntry callback.
func streamRun(t *testing.T, proc *procgen.Processor, trace []iss.TraceEntry, k Kernel, seq bool) (Report, []onEntryRec) {
	t.Helper()
	e, err := New(proc, FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithKernel(k); err != nil {
		t.Fatal(err)
	}
	st := e.Stream()
	st.forceSeq = seq
	var recs []onEntryRec
	st.OnEntry = func(idx int, cycles uint64, pj float64) {
		recs = append(recs, onEntryRec{idx, cycles, pj})
	}
	for i, n := 0, 1; i < len(trace); i, n = i+n, n%517+3 {
		end := i + n
		if end > len(trace) {
			end = len(trace)
		}
		if err := st.Consume(trace[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rep, recs
}

// TestStreamLanesMatchSequential is the end-to-end bit-exactness proof
// for the lane kernel: the chunked jump-ahead path, on every walker
// tier this host runs, must produce a Report, per-block energies, and
// per-entry OnEntry energies bit-identical to the sequential reference
// path (forceSeq), which is the pre-kernel simulateNets walk unchanged.
func TestStreamLanesMatchSequential(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := RecordTrace(t, proc, prog)

	wantRep, wantRecs := streamRun(t, proc, trace, KernelPortable, true)

	t.Run("lanes", func(t *testing.T) {
		for _, k := range SupportedKernels() {
			t.Run(k.String(), func(t *testing.T) {
				gotRep, gotRecs := streamRun(t, proc, trace, k, false)
				compareStreamRun(t, gotRep, wantRep, gotRecs, wantRecs)
			})
		}
	})
}

// compareStreamRun requires a lane-path run to match the sequential
// reference bit for bit: report, per-block energies, and every OnEntry.
func compareStreamRun(t *testing.T, gotRep, wantRep Report, gotRecs, wantRecs []onEntryRec) {
	t.Helper()
	if gotRep.TotalPJ != wantRep.TotalPJ {
		t.Errorf("TotalPJ = %v, want %v (bit-identical)", gotRep.TotalPJ, wantRep.TotalPJ)
	}
	if gotRep.Cycles != wantRep.Cycles {
		t.Errorf("Cycles = %d, want %d", gotRep.Cycles, wantRep.Cycles)
	}
	for i := range wantRep.PerBlockPJ {
		if gotRep.PerBlockPJ[i] != wantRep.PerBlockPJ[i] {
			t.Errorf("PerBlockPJ[%d] = %v, want %v", i, gotRep.PerBlockPJ[i], wantRep.PerBlockPJ[i])
		}
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("OnEntry called %d times, want %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Fatalf("OnEntry[%d] = %+v, want %+v (bit-identical)", i, gotRecs[i], wantRecs[i])
		}
	}
}

// TestStreamFaultCarriesTraceIndex pins the typed entry-level fault:
// an estimation failure mid-batch surfaces as an iss.Fault naming the
// faulting entry's global trace index and PC, with every entry before
// it fully folded — on both the chunked and the sequential paths.
func TestStreamFaultCarriesTraceIndex(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", `
    movi a2, 200
    movi a3, 17
loop:
    add a4, a3, a2
    xor a3, a4, a3
    addi a2, a2, -1
    bnez a2, loop
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := RecordTrace(t, proc, prog)
	const badIdx = 100
	if len(trace) <= badIdx {
		t.Fatalf("trace too short: %d entries", len(trace))
	}
	// An undefined custom opcode: no extension is attached, so pricing
	// this entry must fail.
	trace[badIdx].Instr = isa.Instr{Op: isa.OpCUSTOM, CustomID: 63}

	for _, seq := range []bool{false, true} {
		e, err := New(proc, FastTechnology())
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stream()
		st.forceSeq = seq
		folded := 0
		st.OnEntry = func(idx int, _ uint64, _ float64) {
			if idx != folded {
				t.Fatalf("seq=%v: OnEntry idx %d, want %d", seq, idx, folded)
			}
			folded++
		}
		consumeErr := st.Consume(trace)
		if consumeErr == nil {
			t.Fatalf("seq=%v: Consume accepted an undefined custom opcode", seq)
		}
		var f *iss.Fault
		if !errors.As(consumeErr, &f) {
			t.Fatalf("seq=%v: error %v is not an iss.Fault", seq, consumeErr)
		}
		if f.Kind != iss.FaultIllegalInstr {
			t.Errorf("seq=%v: fault kind %v, want FaultIllegalInstr", seq, f.Kind)
		}
		if f.PC != int(trace[badIdx].PC) {
			t.Errorf("seq=%v: fault PC %d, want %d", seq, f.PC, trace[badIdx].PC)
		}
		if want := "stream estimator: trace entry 100"; f.Msg != want {
			t.Errorf("seq=%v: fault msg %q, want %q", seq, f.Msg, want)
		}
		if f.Err == nil {
			t.Errorf("seq=%v: fault has no cause", seq)
		}
		if folded != badIdx {
			t.Errorf("seq=%v: %d entries folded before the fault, want %d", seq, folded, badIdx)
		}
	}
}

// TestScheduleSizedToChunk pins the schedule scratch to the chunk being
// compiled: after one TraceBatchSize-entry Consume, a fresh schedule
// holds at most two segments per block per entry of that chunk, not
// room for the widest chunk Consume accepts.
func TestScheduleSizedToChunk(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := RecordTrace(t, proc, prog)
	e, err := New(proc, FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stream()
	st.sched = new(schedule) // not a pooled one sized by an earlier, wider chunk
	if err := st.Consume(trace[:iss.TraceBatchSize]); err != nil {
		t.Fatal(err)
	}
	sc := st.sched
	limit := iss.TraceBatchSize * 2 * len(e.blocks)
	if cap(sc.segs) > limit || cap(sc.counts) > limit || cap(sc.recs) > limit+maxWalkLanes {
		t.Errorf("schedule capacity segs %d, counts %d, recs %d after a %d-entry chunk; want <= %d (+%d recs)",
			cap(sc.segs), cap(sc.counts), cap(sc.recs), iss.TraceBatchSize, limit, maxWalkLanes)
	}
	if cap(sc.entEnd) > iss.TraceBatchSize || cap(sc.entCyc) > iss.TraceBatchSize {
		t.Errorf("per-entry capacity %d/%d; want <= %d", cap(sc.entEnd), cap(sc.entCyc), iss.TraceBatchSize)
	}
}
