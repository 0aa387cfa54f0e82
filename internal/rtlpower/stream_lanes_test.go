package rtlpower

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
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
// it fully folded — on the chunked and the sequential Consume paths,
// and on RunStreamed's pipelined path, where the entry is compiled on
// the simulator's goroutine and reported by the fold.
func TestStreamFaultCarriesTraceIndex(t *testing.T) {
	// check requires err to be the fault of entry idx at pc, with the
	// entries before it folded in order.
	check := func(label string, err error, folded, idx int, pc int32) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: an unpriceable entry was accepted", label)
		}
		var f *iss.Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: error %v is not an iss.Fault", label, err)
		}
		if f.Kind != iss.FaultIllegalInstr {
			t.Errorf("%s: fault kind %v, want FaultIllegalInstr", label, f.Kind)
		}
		if f.PC != int(pc) {
			t.Errorf("%s: fault PC %d, want %d", label, f.PC, pc)
		}
		if want := fmt.Sprintf("stream estimator: trace entry %d", idx); f.Msg != want {
			t.Errorf("%s: fault msg %q, want %q", label, f.Msg, want)
		}
		if f.Err == nil {
			t.Errorf("%s: fault has no cause", label)
		}
		if folded != idx {
			t.Errorf("%s: %d entries folded before the fault, want %d", label, folded, idx)
		}
	}
	// stream returns a fresh stream for proc whose OnEntry counts the
	// entries folded, in order.
	stream := func(label string, proc *procgen.Processor, folded *int) *StreamEstimator {
		e, err := New(proc, FastTechnology())
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stream()
		st.OnEntry = func(idx int, _ uint64, _ float64) {
			if idx != *folded {
				t.Errorf("%s: OnEntry idx %d, want %d", label, idx, *folded)
			}
			*folded++
		}
		return st
	}

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
		label := fmt.Sprintf("seq=%v", seq)
		folded := 0
		st := stream(label, proc, &folded)
		st.forceSeq = seq
		check(label, st.Consume(trace), folded, badIdx, trace[badIdx].PC)
	}

	// The pipelined path needs the ISS to retire the unpriceable entry:
	// a processor with an extension runs the program, and an estimator
	// for the same processor without it prices the run, several
	// batches in.
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{{
			Name: "half", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "sh", Cat: hwlib.Shifter, Width: 32},
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal >> 1 },
		}},
	}
	procExt, err := procgen.Generate(procgen.Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	progExt, err := asm.New(procExt.TIE).Assemble("t", `
    movi a2, 300
    movi a3, 17
loop:
    add a4, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    half a3, a3, a2
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	extTrace, _ := RecordTrace(t, procExt, progExt)
	extIdx := -1
	for i := range extTrace {
		if extTrace[i].Instr.IsCustom() {
			extIdx = i
			break
		}
	}
	if extIdx < 2*iss.TraceBatchSize {
		t.Fatalf("first custom entry at %d, want it past the second batch", extIdx)
	}
	folded := 0
	check("serial", stream("serial", proc, &folded).Consume(extTrace), folded, extIdx, extTrace[extIdx].PC)
	folded = 0
	_, err = RunStreamed(context.Background(), iss.New(procExt), progExt, iss.Options{}, stream("pipelined", proc, &folded))
	check("pipelined", err, folded, extIdx, extTrace[extIdx].PC)
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
	st.scheds[0] = new(schedule) // not a pooled one sized by an earlier, wider chunk
	if err := st.Consume(trace[:iss.TraceBatchSize]); err != nil {
		t.Fatal(err)
	}
	sc := st.scheds[0]
	limit := iss.TraceBatchSize * 2 * len(e.blocks)
	if cap(sc.counts) > limit || cap(sc.recs) > limit+maxWalkLanes {
		t.Errorf("schedule capacity counts %d, recs %d after a %d-entry chunk; want <= %d (+%d recs)",
			cap(sc.counts), cap(sc.recs), iss.TraceBatchSize, limit, maxWalkLanes)
	}
	if cap(sc.present) > iss.TraceBatchSize*sc.words || cap(sc.entCyc) > iss.TraceBatchSize {
		t.Errorf("per-entry capacity %d/%d; want <= %d", cap(sc.present)/sc.words, cap(sc.entCyc), iss.TraceBatchSize)
	}
}
