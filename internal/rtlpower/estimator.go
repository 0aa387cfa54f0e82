package rtlpower

import (
	"context"
	"fmt"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
)

// Report is the outcome of one reference power estimation.
type Report struct {
	// TotalPJ is the program's total energy in picojoules.
	TotalPJ float64
	// PerBlockPJ is the energy per structural block, indexed like
	// Processor.Blocks.
	PerBlockPJ []float64
	// Cycles is the number of simulated cycles.
	Cycles uint64
}

// blockModel is the precomputed simulation state of one structural block.
type blockModel struct {
	nets int
	// pjNet is the energy per toggled net, indexed by phase (0 active,
	// 1 idle) so the fold can select it branch-free from a slot's
	// phase bit.
	pjNet [2]float64
}

// Per-cycle toggle probabilities of the net population.
const (
	pActiveNominal = 0.40
	pIdle          = 0.08
)

// Estimator performs structural, cycle-by-cycle energy estimation over
// an execution trace — either materialized (EstimateTrace) or streamed
// incrementally from the ISS (Stream / EstimateProgram). It is the
// slow, accurate reference tool of the characterization flow. An
// Estimator is not safe for concurrent use.
type Estimator struct {
	proc   *procgen.Processor
	tech   Technology
	blocks []blockModel
	// kindIdx maps base block kinds to their Processor.Blocks index,
	// -1 when absent (the generator may omit the multiplier). A dense
	// array: the lookup sits on the per-entry pricing path, where a map
	// access per block kind is measurable.
	kindIdx [procgen.NumBaseBlockKinds]int32
	// desc is a lazily allocated direct-mapped cache of plan.Describe
	// results, used when entries are priced without a plan record (no
	// plan attached, or a fault-altered trace). Sharing it across
	// streaming passes is safe because an Estimator is documented as
	// not safe for concurrent use.
	desc []descEntry
	// kernel is the walker tier its streams count toggles on:
	// SelectedKernel unless pinned by WithKernel.
	kernel Kernel
}

// descEntry is one slot of the Describe cache; used distinguishes an
// empty slot from a cached zero-valued instruction.
type descEntry struct {
	used bool
	rec  plan.Rec
}

// descCacheSize is the direct-mapped Describe cache size; must be a
// power of two.
const descCacheSize = 1024

// descIndex hashes an instruction word into the Describe cache (FNV-1a
// over the fields that distinguish instructions).
func descIndex(in isa.Instr) uint32 {
	h := uint32(2166136261)
	h = (h ^ uint32(in.Op)) * 16777619
	h = (h ^ uint32(in.Rd)) * 16777619
	h = (h ^ uint32(in.Rs)) * 16777619
	h = (h ^ uint32(in.Rt)) * 16777619
	h = (h ^ uint32(in.Imm)) * 16777619
	h = (h ^ uint32(in.CustomID)) * 16777619
	return h & (descCacheSize - 1)
}

// New builds an estimator for proc under the given technology.
func New(proc *procgen.Processor, tech Technology) (*Estimator, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{proc: proc, tech: tech, kernel: SelectedKernel()}
	for k := range e.kindIdx {
		e.kindIdx[k] = -1
	}
	for i, b := range proc.Blocks {
		if b.Kind != procgen.BlockCustom {
			e.kindIdx[b.Kind] = int32(i)
		}
	}
	for _, b := range proc.Blocks {
		var bm blockModel
		if b.Kind == procgen.BlockCustom {
			unit := tech.CustomUnitPJ[b.Component.Cat]
			cx := b.Component.Complexity()
			bm.nets = scaleNets(float64(tech.CustomNetsPerUnit)*cx, tech.Detail)
			active := unit * cx
			bm.pjNet[0] = active / (float64(bm.nets) * pActiveNominal)
			bm.pjNet[1] = active * tech.CustomIdleFrac / (float64(bm.nets) * pIdle)
		} else {
			p := tech.Blocks[b.Kind]
			bm.nets = scaleNets(float64(p.Nets), tech.Detail)
			bm.pjNet[0] = p.ActivePJ / (float64(bm.nets) * pActiveNominal)
			bm.pjNet[1] = p.IdlePJ / (float64(bm.nets) * pIdle)
		}
		e.blocks = append(e.blocks, bm)
	}
	return e, nil
}

func scaleNets(nets, detail float64) int {
	n := int(nets * detail)
	if n < 8 {
		n = 8
	}
	return n
}

// EstimateTrace runs the reference energy simulation over a whole
// trace, as appended from the ISS's TraceSink batches. The same trace
// can be estimated repeatedly; results are deterministic for a given
// technology seed. It is a thin wrapper over the streaming form
// (Stream / StreamEstimator) and produces bit-identical reports; the
// equivalence tests use it as their oracle.
func (e *Estimator) EstimateTrace(trace []iss.TraceEntry) (Report, error) {
	if len(trace) == 0 {
		return Report{}, fmt.Errorf("rtlpower: empty trace")
	}
	s := e.Stream()
	if err := s.Consume(trace); err != nil {
		return Report{}, err
	}
	return s.Finish()
}

// EstimateProgram runs the full "slow path" (RTL simulation of the
// synthesized processor) for one program: the ISS streams retired
// instructions into the incremental estimator through a small ring of
// compiled chunks (see RunStreamed), so the trace is never
// materialized — memory stays O(1) in the run length and simulation
// overlaps with estimation on two goroutines. The returned Result
// carries statistics but no Trace.
//
// opts lets callers set watchdog limits or fault injection; any trace
// options in it are overridden by the stream (see RunStreamed).
// Cancelling ctx aborts within one batch boundary with a typed
// FaultCancelled error.
func (e *Estimator) EstimateProgram(ctx context.Context, prog *iss.Program, opts iss.Options) (Report, *iss.Result, error) {
	st := e.Stream()
	res, err := RunStreamed(ctx, iss.New(e.proc), prog, opts, st)
	if err != nil {
		return Report{}, nil, err
	}
	rep, err := st.Finish()
	if err != nil {
		return Report{}, nil, err
	}
	return rep, res, nil
}
