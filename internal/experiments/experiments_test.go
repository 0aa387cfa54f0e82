package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// The experiments share one Fast suite (characterization and Table II
// are cached inside it) to keep the package's test time reasonable.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite = Fast() })
	return suite
}

func TestTable1(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("Table I has %d rows, want 21", len(rows))
	}
	for _, r := range rows {
		if r.Variable == "" || r.Description == "" {
			t.Fatalf("row missing metadata: %+v", r)
		}
	}
	text := FormatTable1(rows)
	for _, want := range []string{"TABLE I", "arith", "hw:table"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Table I text missing %q", want)
		}
	}
}

func TestFig3ReproducesErrorBands(t *testing.T) {
	s := testSuite(t)
	f, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 40 {
		t.Fatalf("Fig 3 has %d points", len(f.Points))
	}
	// Paper bands: max < 8.9%, RMS 3.8%. Accept the same magnitude.
	if f.MaxAbsPct >= 10 {
		t.Fatalf("max fitting error %.2f%%, paper band is <8.9%%", f.MaxAbsPct)
	}
	if f.RMSPct >= 5 {
		t.Fatalf("RMS fitting error %.2f%%, paper reports 3.8%%", f.RMSPct)
	}
	if f.RMSPct <= 0.05 {
		t.Fatalf("RMS fitting error %.3f%% is implausibly small (interpolation?)", f.RMSPct)
	}
	text := FormatFig3(f)
	if !strings.Contains(text, "FIG. 3") {
		t.Fatal("Fig 3 text malformed")
	}
}

func TestTable2ReproducesErrorBands(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Table II has %d rows, want 10", len(tab.Rows))
	}
	// Paper: max 8.5%, mean 3.3%. Accept the same magnitude.
	if tab.MaxAbsPct >= 10 {
		t.Fatalf("max application error %.1f%%, paper band is 8.5%%", tab.MaxAbsPct)
	}
	if tab.MeanAbsPct >= 5 {
		t.Fatalf("mean |error| %.1f%%, paper reports 3.3%%", tab.MeanAbsPct)
	}
	for _, r := range tab.Rows {
		if r.EstimateUJ <= 0 || r.ReferenceUJ <= 0 {
			t.Fatalf("non-positive energies for %s", r.Application)
		}
	}
	text := FormatTable2(tab)
	for _, want := range []string{"TABLE II", "ins_sort", "seq_mult"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Table II text missing %q", want)
		}
	}
}

func TestFig4TracksAndOrders(t *testing.T) {
	s := testSuite(t)
	points, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("Fig 4 has %d points", len(points))
	}
	// Relative accuracy: both estimators rank the choices identically.
	if !Fig4Tracks(points) {
		t.Fatalf("profiles do not track: %+v", points)
	}
	// The base configuration must be the most expensive under both
	// estimators and the fold configuration among the cheapest.
	if points[0].ReferenceUJ <= points[3].ReferenceUJ {
		t.Fatalf("rs_base not more expensive than rs_gffold: %+v", points)
	}
	// Each choice's estimate must be within 15% of its reference (the
	// relative-accuracy experiment tolerates more than Table II).
	for _, p := range points {
		rel := (p.EstimateUJ - p.ReferenceUJ) / p.ReferenceUJ
		if rel < -0.15 || rel > 0.15 {
			t.Fatalf("%s estimate off by %.1f%%", p.Choice, 100*rel)
		}
	}
	if !strings.Contains(FormatFig4(points), "FIG. 4") {
		t.Fatal("Fig 4 text malformed")
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	full, ok := byName["hybrid-21var"]
	if !ok {
		t.Fatal("full model ablation row missing")
	}
	instOnly, ok := byName["instruction-only"]
	if !ok {
		t.Fatal("instruction-only ablation missing")
	}
	// The hybrid formulation is the paper's point: dropping the
	// structural variables must hurt out-of-sample accuracy clearly.
	if instOnly.AppMeanAbsPct < 1.5*full.AppMeanAbsPct {
		t.Fatalf("instruction-only (%.2f%%) not clearly worse than hybrid (%.2f%%)",
			instOnly.AppMeanAbsPct, full.AppMeanAbsPct)
	}
	if instOnly.TrainRMSPct < full.TrainRMSPct {
		t.Fatal("instruction-only fits training better than the hybrid?")
	}
	// The nonnegative variant must not produce wildly different app
	// errors than the plain fit.
	nn := byName["hybrid-nonneg"]
	if nn.AppMeanAbsPct > 2*full.AppMeanAbsPct+2 {
		t.Fatalf("nonnegative fit diverged: %.2f%% vs %.2f%%", nn.AppMeanAbsPct, full.AppMeanAbsPct)
	}
	if !strings.Contains(FormatAblations(rows), "ABLATIONS") {
		t.Fatal("ablation text malformed")
	}
}

func TestMappings(t *testing.T) {
	full := FullMapping()
	inst := InstructionOnlyMapping()
	lump := LumpedCyclesMapping()
	var v [21]float64
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := full.Transform(v); len(got) != 21 || got[20] != 21 {
		t.Fatalf("full mapping wrong: %v", got)
	}
	if got := inst.Transform(v); len(got) != 11 || got[10] != 11 {
		t.Fatalf("instruction-only mapping wrong: %v", got)
	}
	got := lump.Transform(v)
	if len(got) != 16 {
		t.Fatalf("lumped mapping length %d, want 16", len(got))
	}
	if got[0] != 1+2+3+4+5+6 {
		t.Fatalf("lumped cycles = %g, want 21", got[0])
	}
	if got[1] != 7 { // icache-miss follows
		t.Fatalf("lumped mapping shifted wrong: %v", got)
	}
}

func TestSpeedupQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup timing is slow")
	}
	s := testSuite(t)
	r, err := s.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatSpeedup(r), "SPEEDUP") {
		t.Fatal("speedup text malformed")
	}
	// The reference path must be at least two orders of magnitude
	// slower (the paper reports three against true gate-level RTL).
	// The race detector slows the ISS-bound macro leg and the
	// arithmetic-bound reference leg by very different factors, so the
	// ratio is only asserted in uninstrumented builds.
	if raceEnabled {
		return
	}
	if x := portableSpeedup(t, s); x < 50 {
		t.Fatalf("speedup only %.0fx", x)
	}
}

// portableSpeedup times Speedup's two legs with the reference leg
// pinned to the portable walker, so the ratio does not depend on which
// SIMD walker tier the host selects.
func portableSpeedup(t *testing.T, s *Suite) float64 {
	t.Helper()
	cr, err := s.Characterization()
	if err != nil {
		t.Fatal(err)
	}
	refTech := s.Tech
	refTech.Detail = 1.0
	apps := workloads.Applications()

	start := time.Now()
	for _, w := range apps {
		if _, err := cr.Model.EstimateWorkload(s.Config, w); err != nil {
			t.Fatal(err)
		}
	}
	macro := time.Since(start)

	start = time.Now()
	for _, w := range apps {
		proc, prog, err := w.Build(s.Config)
		if err != nil {
			t.Fatal(err)
		}
		est, err := rtlpower.New(proc, refTech)
		if err != nil {
			t.Fatal(err)
		}
		if est, err = est.WithKernel(rtlpower.KernelPortable); err != nil {
			t.Fatal(err)
		}
		if _, _, err := est.EstimateProgram(context.Background(), prog, iss.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	ref := time.Since(start)
	t.Logf("macro-model %v, portable reference %v", macro, ref)
	return float64(ref) / float64(macro)
}

func TestConfigSensitivity(t *testing.T) {
	s := testSuite(t)
	r, err := s.ConfigSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	// Each configuration's own model stays in the paper's error band.
	if r.BaseSelfMeanPct >= 5 || r.AltSelfMeanPct >= 5 {
		t.Fatalf("self-applied models degraded: %.2f%% / %.2f%%", r.BaseSelfMeanPct, r.AltSelfMeanPct)
	}
	// Applying the wrong configuration's model must be clearly worse.
	if r.CrossMeanPct < 1.3*r.AltSelfMeanPct {
		t.Fatalf("cross-applied model (%.2f%%) not clearly worse than self (%.2f%%)",
			r.CrossMeanPct, r.AltSelfMeanPct)
	}
	// Halving the caches and lengthening the miss penalty must raise the
	// per-miss coefficients.
	if r.AltCoef[core.VICacheMiss] <= r.BaseCoef[core.VICacheMiss] {
		t.Fatalf("icache-miss coefficient did not rise: %.1f -> %.1f",
			r.BaseCoef[core.VICacheMiss], r.AltCoef[core.VICacheMiss])
	}
	if r.AltCoef[core.VDCacheMiss] <= r.BaseCoef[core.VDCacheMiss] {
		t.Fatalf("dcache-miss coefficient did not rise: %.1f -> %.1f",
			r.BaseCoef[core.VDCacheMiss], r.AltCoef[core.VDCacheMiss])
	}
	if !strings.Contains(FormatConfigSensitivity(r), "CONFIG SENSITIVITY") {
		t.Fatal("config text malformed")
	}
}

func TestExtendedValidation(t *testing.T) {
	s := testSuite(t)
	v, err := s.Validation()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 6 {
		t.Fatalf("validation has %d rows, want 6", len(v.Rows))
	}
	if v.MaxAbsPct >= 10 {
		t.Fatalf("validation max error %.1f%%, outside the paper band", v.MaxAbsPct)
	}
	if v.MeanAbsPct >= 6 {
		t.Fatalf("validation mean |error| %.1f%%", v.MeanAbsPct)
	}
	if !strings.Contains(FormatValidation(v), "EXTENDED VALIDATION") {
		t.Fatal("validation text malformed")
	}
}

func TestCrossValidation(t *testing.T) {
	s := testSuite(t)
	cv, err := s.CrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Points) != 40 {
		t.Fatalf("LOOCV has %d points", len(cv.Points))
	}
	// Every variable must be identifiable without any single program.
	if cv.Unidentifiable != 0 {
		t.Fatalf("%d programs are sole anchors of a variable", cv.Unidentifiable)
	}
	// Out-of-sample error is necessarily worse than the in-sample fit but
	// must stay bounded (no program should be wildly unpredictable).
	if cv.MeanAbsPct >= 15 {
		t.Fatalf("LOOCV mean |err| = %.1f%%", cv.MeanAbsPct)
	}
	if cv.MaxAbsPct >= 100 {
		t.Fatalf("LOOCV max |err| = %.1f%%: a program anchors its own variables", cv.MaxAbsPct)
	}
	if !strings.Contains(FormatCrossValidation(cv), "LEAVE-ONE-OUT") {
		t.Fatal("LOOCV text malformed")
	}
}

func TestStability(t *testing.T) {
	if testing.Short() {
		t.Skip("stability re-characterizes several times")
	}
	s := testSuite(t)
	r, err := s.Stability(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seeds != 3 || len(r.Rows) != 21 {
		t.Fatalf("stability shape wrong: %d seeds, %d rows", r.Seeds, len(r.Rows))
	}
	// The characterization must be robust to the reference model's
	// sampling seed: major coefficients should move by well under 10%.
	if r.MaxMajorCVPct >= 10 {
		t.Fatalf("max major coefficient CV = %.2f%%", r.MaxMajorCVPct)
	}
	if !strings.Contains(FormatStability(r), "SEED STABILITY") {
		t.Fatal("stability text malformed")
	}
	if _, err := s.Stability(1); err == nil {
		t.Fatal("single-seed stability accepted")
	}
}

func TestPerOpcodeAblationUnderdetermined(t *testing.T) {
	s := testSuite(t)
	vars, obs, solvable, err := s.PerOpcodeAblation()
	if err != nil {
		t.Fatal(err)
	}
	if vars <= obs {
		t.Fatalf("per-opcode model has %d variables for %d observations; expected underdetermined", vars, obs)
	}
	if solvable {
		t.Fatal("per-opcode model unexpectedly solvable")
	}
	// The opcode columns alone must exceed the paper's 6 classes by far.
	if vars < 45 {
		t.Fatalf("only %d per-opcode variables; suite uses too few opcodes", vars)
	}
}
