package workloads

import (
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/resource"
)

func TestSuiteSize(t *testing.T) {
	suite := CharacterizationSuite()
	if len(suite) != 40 {
		t.Fatalf("suite has %d programs, want 40", len(suite))
	}
	names := map[string]bool{}
	for _, w := range suite {
		if names[w.Name] {
			t.Fatalf("duplicate program name %s", w.Name)
		}
		names[w.Name] = true
	}
}

func TestSuiteAllProgramsRun(t *testing.T) {
	cfg := procgen.Default()
	for _, w := range CharacterizationSuite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			proc, prog, err := w.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := iss.New(proc).Run(prog, iss.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cycles < 500 {
				t.Fatalf("program too short to characterize: %d cycles", res.Stats.Cycles)
			}
			if res.Stats.Cycles > 2_000_000 {
				t.Fatalf("program too long for the reference estimator: %d cycles", res.Stats.Cycles)
			}
		})
	}
}

// The suite must cover every macro-model variable: each of the 21
// variables must be nonzero in at least two programs (so no coefficient
// is pinned to a single observation).
func TestSuiteCoversAllVariables(t *testing.T) {
	cfg := procgen.Default()
	counts := make([]int, core.NumVars)
	for _, w := range CharacterizationSuite() {
		proc, prog, err := w.Build(cfg)
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
		for i, v := range vars {
			if v != 0 {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		min := 2
		if i == core.VUncachedFetch {
			min = 1 // only the dedicated uncached program exercises it
		}
		if c < min {
			t.Errorf("variable %s covered by %d programs, want >= %d", core.VarName(i), c, min)
		}
	}
}

// Every custom-hardware category must appear at at least two different
// complexities across the suite (otherwise unit energy and width scaling
// are not separable).
func TestSuiteCoversCategoriesAtMultipleWidths(t *testing.T) {
	cfg := procgen.Default()
	weights := make(map[hwlib.Category]map[float64]bool)
	for _, w := range CharacterizationSuite() {
		if w.Ext == nil {
			continue
		}
		proc, _, err := w.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range proc.TIE.Components {
			if weights[comp.Cat] == nil {
				weights[comp.Cat] = map[float64]bool{}
			}
			weights[comp.Cat][comp.Complexity()] = true
		}
	}
	for cat := hwlib.Category(0); cat < hwlib.NumCategories; cat++ {
		if len(weights[cat]) < 2 {
			t.Errorf("category %s appears at %d complexities, want >= 2", cat, len(weights[cat]))
		}
	}
}

// Specific non-ideal-case programs must actually produce their events in
// quantity.
func TestSuiteEventPrograms(t *testing.T) {
	cfg := procgen.Default()
	run := func(name string) *iss.Stats {
		for _, w := range CharacterizationSuite() {
			if w.Name == name {
				proc, prog, err := w.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := iss.New(proc).Run(prog, iss.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return &res.Stats
			}
		}
		t.Fatalf("program %s not in suite", name)
		return nil
	}
	if st := run("tp12_dcache_stride"); st.DCacheMisses < 5000 {
		t.Errorf("dcache program misses = %d", st.DCacheMisses)
	}
	if st := run("tp13_icache_big"); st.ICacheMisses < 1000 {
		t.Errorf("icache program misses = %d", st.ICacheMisses)
	}
	if st := run("tp14_uncached"); st.UncachedFetches < 1000 {
		t.Errorf("uncached program fetches = %d", st.UncachedFetches)
	}
	if st := run("tp11_interlock"); st.Interlocks < 5000 {
		t.Errorf("interlock program stalls = %d", st.Interlocks)
	}
	if st := run("tp08_branch_taken"); st.ClassCycles[iss.CBranchTaken] < 3*st.ClassCycles[iss.CBranchUntaken] {
		t.Errorf("taken program not taken-dominated: %d vs %d",
			st.ClassCycles[iss.CBranchTaken], st.ClassCycles[iss.CBranchUntaken])
	}
	if st := run("tp09_branch_untaken"); st.ClassCycles[iss.CBranchUntaken] < st.ClassCycles[iss.CBranchTaken] {
		t.Errorf("untaken program not untaken-dominated")
	}
}

// The suite and the applications must not overlap (Table II apps are
// out-of-sample: "different from the test programs used in
// macro-modeling").
func TestSuiteDisjointFromApplications(t *testing.T) {
	suite := map[string]bool{}
	for _, w := range CharacterizationSuite() {
		suite[w.Name] = true
	}
	for _, a := range Applications() {
		if suite[a.Name] {
			t.Fatalf("application %s appears in the characterization suite", a.Name)
		}
	}
}

// Structural variables of a cover program must line up with the
// resource analyzer's view (sanity link between suite and analysis).
func TestCoverProgramStructuralVars(t *testing.T) {
	cfg := procgen.Default()
	var w core.Workload
	for _, cand := range CharacterizationSuite() {
		if cand.Name == "tp15_cover_mult" {
			w = cand
		}
	}
	proc, prog, err := w.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := iss.New(proc).Run(prog, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vars, err := resource.FromStats(proc.TIE, &res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if vars[hwlib.Multiplier] <= 0 {
		t.Fatal("mult cover program has no multiplier activity")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	names := map[string]bool{}
	for _, w := range all {
		if names[w.Name] {
			t.Fatalf("duplicate workload name %s", w.Name)
		}
		names[w.Name] = true
	}
	if len(all) != 40+10+6+4 {
		t.Fatalf("registry has %d workloads, want 60", len(all))
	}
	if _, ok := ByName("des"); !ok {
		t.Fatal("ByName failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus name found")
	}
	ns := Names()
	if len(ns) != len(all) {
		t.Fatal("Names length mismatch")
	}
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatal("Names not sorted")
		}
	}
}
