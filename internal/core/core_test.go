package core_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/tie"
	"xtenergy/internal/workloads"
)

func miniExt() *tie.Extension {
	return &tie.Extension{
		Name:          "mini",
		NumCustomRegs: 1,
		Instructions: []*tie.Instruction{
			{
				Name: "crunch", Latency: 2, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []tie.DatapathElem{
					{Component: hwlib.Component{Name: "cu", Cat: hwlib.Multiplier, Width: 16}, OnBus: true},
					{Component: hwlib.Component{Name: "cr", Cat: hwlib.CustomRegister, Width: 32}},
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					s.Regs[0] ^= op.RsVal
					return op.RsVal*3 + op.RtVal
				},
			},
		},
	}
}

// The characterized model is expensive to build, so the package's tests
// share one instance (the suite and technology are deterministic).
var (
	charOnce sync.Once
	charRes  *core.CharacterizationResult
	charErr  error
)

func fastChar(t *testing.T) *core.CharacterizationResult {
	t.Helper()
	charOnce.Do(func() {
		charRes, charErr = core.Characterize(context.Background(),
			procgen.Default(), rtlpower.FastTechnology(),
			workloads.CharacterizationSuite(), core.Options{})
	})
	if charErr != nil {
		t.Fatal(charErr)
	}
	return charRes
}

func TestVarNames(t *testing.T) {
	if core.NumVars != 21 {
		t.Fatalf("got %d variables, want the paper's 21", core.NumVars)
	}
	seen := map[string]bool{}
	for i := 0; i < core.NumVars; i++ {
		n := core.VarName(i)
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate variable name %q", n)
		}
		seen[n] = true
	}
	if core.VarName(0) != "arith" || core.VarName(core.VCustomBase) != "hw:mult" {
		t.Fatalf("variable order wrong: %q, %q", core.VarName(0), core.VarName(core.VCustomBase))
	}
	if core.VarName(-1) == "" || core.VarName(999) == "" {
		t.Fatal("out-of-range VarName empty")
	}
}

func TestExtract(t *testing.T) {
	w := core.Workload{Name: "x", Ext: miniExt(), Source: `
start:
    movi a3, 30
    movi a4, 5
loop:
    crunch a5, a4, a3
    addi a3, a3, -1
    bnez a3, loop
    ret
`}
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := iss.New(proc).Run(prog, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vars, err := core.Extract(proc.TIE, &res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if vars[core.VArith] == 0 || vars[core.VBranchTaken] == 0 {
		t.Fatalf("instruction-level variables missing: %v", vars)
	}
	// crunch executes 30 times, latency 2, accesses the regfile.
	if vars[core.VCustomSideEffect] != 60 {
		t.Fatalf("side-effect cycles = %g, want 60", vars[core.VCustomSideEffect])
	}
	if vars[core.VCustomBase+int(hwlib.Multiplier)] <= 0 {
		t.Fatal("structural multiplier variable missing")
	}
}

func TestWorkloadBuildErrors(t *testing.T) {
	w := core.Workload{Name: "bad", Source: "    bogus\n"}
	if _, _, err := w.Build(procgen.Default()); err == nil {
		t.Fatal("bad source built")
	}
	w2 := core.Workload{Name: "badext", Source: "ret\n", Ext: &tie.Extension{Name: ""}}
	if _, _, err := w2.Build(procgen.Default()); err == nil {
		t.Fatal("bad extension built")
	}
}

func TestCharacterizeProducesUsableModel(t *testing.T) {
	cr := fastChar(t)
	if len(cr.Observations) != len(workloads.CharacterizationSuite()) {
		t.Fatalf("observations = %d", len(cr.Observations))
	}
	m := cr.Model
	if m.Fit == nil {
		t.Fatal("no fit diagnostics")
	}
	if m.Fit.R2 < 0.99 {
		t.Fatalf("R2 = %g, characterization failed", m.Fit.R2)
	}
	// Fitting errors must be small on the training set (paper Fig. 3:
	// max < 8.9%).
	for _, o := range cr.Observations {
		if math.Abs(o.RelErr) > 0.12 {
			t.Fatalf("%s fit error %.1f%%", o.Name, 100*o.RelErr)
		}
		if o.MeasuredPJ <= 0 || o.FittedPJ <= 0 {
			t.Fatalf("%s has non-positive energies", o.Name)
		}
	}
	// Base per-cycle coefficients must be positive and plausible for a
	// few-hundred-pJ/cycle core.
	for _, v := range []int{core.VArith, core.VLoad, core.VStore, core.VJump, core.VBranchTaken, core.VBranchUntaken} {
		if m.Coef[v] < 50 || m.Coef[v] > 2000 {
			t.Fatalf("%s coefficient = %g pJ, implausible", core.VarName(v), m.Coef[v])
		}
	}
	// Event coefficients are per-event and larger.
	for _, v := range []int{core.VICacheMiss, core.VDCacheMiss, core.VUncachedFetch} {
		if m.Coef[v] < 500 || m.Coef[v] > 20000 {
			t.Fatalf("%s coefficient = %g pJ, implausible", core.VarName(v), m.Coef[v])
		}
	}
}

func TestCharacterizeGeneralizes(t *testing.T) {
	cr := fastChar(t)
	// Held-out applications (not in the training suite).
	for _, name := range []string{"alphablend", "des", "gcd"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatal("application missing")
		}
		est, err := cr.Model.EstimateWorkload(procgen.Default(), w)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.ReferenceEnergy(context.Background(), procgen.Default(), rtlpower.FastTechnology(), w)
		if err != nil {
			t.Fatal(err)
		}
		if relErr := 100 * (est.EnergyPJ - ref.EnergyPJ) / ref.EnergyPJ; math.Abs(relErr) > 12 {
			t.Fatalf("%s held-out error %.1f%%, model does not generalize", name, relErr)
		}
	}
}

func TestEstimateWorkloadFastPath(t *testing.T) {
	cr := fastChar(t)
	w := workloads.CharacterizationSuite()[1]
	est, err := cr.Model.EstimateWorkload(procgen.Default(), w)
	if err != nil {
		t.Fatal(err)
	}
	if est.EnergyPJ <= 0 || est.Cycles == 0 {
		t.Fatalf("estimate = %+v", est)
	}
	if est.EnergyUJ() != est.EnergyPJ*1e-6 {
		t.Fatal("unit conversion wrong")
	}
	// The fast path must match the training fit for a training program.
	var obs *core.Observation
	for i := range cr.Observations {
		if cr.Observations[i].Name == w.Name {
			obs = &cr.Observations[i]
		}
	}
	if obs == nil {
		t.Fatal("training observation missing")
	}
	if math.Abs(est.EnergyPJ-obs.FittedPJ) > 1e-6*obs.FittedPJ {
		t.Fatalf("fast path %g != fitted %g", est.EnergyPJ, obs.FittedPJ)
	}
}

func TestEstimateWithoutModelFails(t *testing.T) {
	var m core.MacroModel
	if _, err := m.EstimateWorkload(procgen.Default(), workloads.Applications()[0]); err == nil {
		t.Fatal("empty model estimated")
	}
}

func TestCharacterizeErrors(t *testing.T) {
	cfg := procgen.Default()
	tech := rtlpower.FastTechnology()
	if _, err := core.Characterize(context.Background(), cfg, tech, nil, core.Options{}); err == nil {
		t.Fatal("empty suite accepted")
	}
	// Too few programs for the active variables.
	if _, err := core.Characterize(context.Background(), cfg, tech, workloads.CharacterizationSuite()[:3], core.Options{}); err == nil {
		t.Fatal("underdetermined suite accepted")
	}
	// A broken program fails characterization.
	bad := []core.Workload{{Name: "x", Source: "bogus\n"}}
	if _, err := core.Characterize(context.Background(), cfg, tech, bad, core.Options{}); err == nil {
		t.Fatal("broken program accepted")
	}
}

func TestReferenceEnergy(t *testing.T) {
	ref, err := core.ReferenceEnergy(context.Background(), procgen.Default(), rtlpower.FastTechnology(), workloads.Applications()[5])
	if err != nil {
		t.Fatal(err)
	}
	if ref.EnergyPJ <= 0 || ref.Cycles == 0 {
		t.Fatalf("reference = %+v", ref)
	}
	if ref.EnergyUJ() != ref.EnergyPJ*1e-6 {
		t.Fatal("unit conversion wrong")
	}
}

func TestEstimatePJLinear(t *testing.T) {
	m := &core.MacroModel{}
	m.Coef[core.VArith] = 2
	m.Coef[core.VLoad] = 3
	var v core.Vars
	v[core.VArith] = 10
	v[core.VLoad] = 5
	if got := m.EstimatePJ(v); got != 35 {
		t.Fatalf("EstimatePJ = %g, want 35", got)
	}
}

// Recovery check: the fitted custom-hardware coefficients should land
// near the technology's true unit energies (Table I seeding), since the
// reference model's custom energy is linear in the structural variables
// up to activity noise. Tolerances are wide because the per-cycle base
// overhead of custom instructions is shared between the side-effect and
// structural coefficients.
func TestCustomCoefficientsNearTruth(t *testing.T) {
	cr := fastChar(t)
	truth := rtlpower.DefaultTechnology().CustomUnitPJ
	for cat := hwlib.Category(0); cat < hwlib.NumCategories; cat++ {
		got := cr.Model.Coef[core.VCustomBase+int(cat)]
		want := truth[cat]
		if math.Abs(got-want) > 0.6*want+80 {
			t.Errorf("category %s coefficient %.1f pJ, truth %.1f pJ", cat, got, want)
		}
	}
}

func TestCoefficientStandardErrors(t *testing.T) {
	cr := fastChar(t)
	m := cr.Model
	// Major per-cycle coefficients must come with defined, reasonably
	// tight standard errors (the suite leaves 19 degrees of freedom).
	for _, v := range []int{core.VArith, core.VLoad, core.VStore} {
		se := m.CoefStdErr[v]
		if se <= 0 {
			t.Fatalf("%s has no standard error", core.VarName(v))
		}
		if se > 0.25*m.Coef[v] {
			t.Fatalf("%s standard error %.1f is %.0f%% of the coefficient",
				core.VarName(v), se, 100*se/m.Coef[v])
		}
	}
}

func TestBreakdownSumsToEstimate(t *testing.T) {
	cr := fastChar(t)
	w := workloads.DES()
	est, err := cr.Model.EstimateWorkload(procgen.Default(), w)
	if err != nil {
		t.Fatal(err)
	}
	rows := cr.Model.Breakdown(est.Vars)
	if len(rows) == 0 {
		t.Fatal("empty breakdown")
	}
	var sum, pct float64
	for i, r := range rows {
		sum += r.EnergyPJ
		pct += r.Percent
		if i > 0 && r.EnergyPJ > rows[i-1].EnergyPJ {
			t.Fatal("breakdown not sorted")
		}
	}
	if math.Abs(sum-est.EnergyPJ) > 1e-9*math.Abs(est.EnergyPJ) {
		t.Fatalf("breakdown sums to %g, estimate is %g", sum, est.EnergyPJ)
	}
	if math.Abs(pct-100) > 0.01 {
		t.Fatalf("breakdown shares sum to %.2f%%", pct)
	}
	text := core.FormatBreakdown(rows)
	if !strings.Contains(text, "estimate breakdown") || !strings.Contains(text, "arith") {
		t.Fatalf("breakdown text malformed:\n%s", text)
	}
}

// TestCharacterizeSerialIdentical pins that leg scheduling cannot
// change the fit: a run whose legs are serialized through a mutex in
// its Measure function must fit bit-identical coefficients to the
// default GOMAXPROCS-wide worker pool.
func TestCharacterizeSerialIdentical(t *testing.T) {
	want := fastChar(t)
	var mu sync.Mutex
	serial := func(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w core.Workload) (core.Measurement, error) {
		mu.Lock()
		defer mu.Unlock()
		return core.MeasureWorkload(ctx, cfg, tech, w)
	}
	got, err := core.Characterize(context.Background(),
		procgen.Default(), rtlpower.FastTechnology(),
		workloads.CharacterizationSuite(), core.Options{Measure: serial})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Model.Coef {
		if got.Model.Coef[i] != want.Model.Coef[i] {
			t.Fatalf("coef %d: serial %v != parallel %v (bit-identical expected)",
				i, got.Model.Coef[i], want.Model.Coef[i])
		}
	}
}
