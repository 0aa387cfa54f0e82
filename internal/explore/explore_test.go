package explore_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/explore"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

var (
	modelOnce sync.Once
	model     *core.MacroModel
	modelErr  error
)

func sharedModel(t *testing.T) *core.MacroModel {
	t.Helper()
	modelOnce.Do(func() {
		cr, err := core.Characterize(context.Background(), procgen.Default(), rtlpower.FastTechnology(),
			workloads.CharacterizationSuite(), core.Options{})
		if err != nil {
			modelErr = err
			return
		}
		model = cr.Model
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func TestEvaluateReedSolomonSpace(t *testing.T) {
	m := sharedModel(t)
	var cands []explore.Candidate
	for _, w := range workloads.ReedSolomonConfigurations() {
		cands = append(cands, explore.Candidate{Config: procgen.Default(), Workload: w})
	}
	points, err := explore.Evaluate(m, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	// Order preserved; names defaulted from workloads.
	if points[0].Name != "rs_base" || points[3].Name != "rs_gffold" {
		t.Fatalf("order/names wrong: %v, %v", points[0].Name, points[3].Name)
	}
	// The RS space is monotone: every added custom instruction reduces
	// both cycles and energy, so every point is Pareto-optimal... except
	// those dominated. rs_gffold dominates in both axes -> it is Pareto.
	best, err := explore.MinEnergy(points)
	if err != nil {
		t.Fatal(err)
	}
	if best.Name != "rs_gffold" {
		t.Fatalf("min energy = %s", best.Name)
	}
	if !best.Pareto {
		t.Fatal("min-energy point not marked Pareto")
	}
	edp, err := explore.MinEDP(points)
	if err != nil {
		t.Fatal(err)
	}
	if edp.Name != "rs_gffold" {
		t.Fatalf("min EDP = %s", edp.Name)
	}
	text := explore.Format(points)
	if !strings.Contains(text, "rs_gfmac") || !strings.Contains(text, "DESIGN SPACE") {
		t.Fatalf("format malformed:\n%s", text)
	}
}

func TestParetoLogic(t *testing.T) {
	mk := func(name string, cycles uint64, pj float64) explore.Point {
		return explore.Point{
			Candidate: explore.Candidate{Name: name},
			Cycles:    cycles, EnergyPJ: pj, EDP: pj * float64(cycles),
		}
	}
	points := []explore.Point{
		mk("a", 100, 50), // Pareto (fewest cycles)
		mk("b", 200, 40), // Pareto (less energy than a)
		mk("c", 300, 45), // dominated by b
		mk("d", 400, 30), // Pareto (least energy)
		mk("e", 100, 50), // tie with a: neither dominates
	}
	// Re-run the marking through Evaluate's helper via ParetoFrontier on
	// manually marked points: mark by constructing through the exported
	// path instead.
	marked := markViaFrontier(points)
	want := map[string]bool{"a": true, "b": true, "c": false, "d": true, "e": true}
	for _, p := range marked {
		if p.Pareto != want[p.Name] {
			t.Errorf("%s pareto = %v, want %v", p.Name, p.Pareto, want[p.Name])
		}
	}
	front := explore.ParetoFrontier(marked)
	if len(front) != 4 {
		t.Fatalf("frontier has %d points, want 4", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i-1].Cycles > front[i].Cycles {
			t.Fatal("frontier not sorted by cycles")
		}
	}
}

// markViaFrontier replicates Evaluate's marking on prebuilt points by
// exercising the exported surface (ParetoFrontier relies on the Pareto
// flags, so we recompute them with the same dominance rule).
func markViaFrontier(points []explore.Point) []explore.Point {
	out := make([]explore.Point, len(points))
	copy(out, points)
	for i := range out {
		dominated := false
		for j := range out {
			if i == j {
				continue
			}
			a, b := &out[j], &out[i]
			if a.Cycles <= b.Cycles && a.EnergyPJ <= b.EnergyPJ &&
				(a.Cycles < b.Cycles || a.EnergyPJ < b.EnergyPJ) {
				dominated = true
				break
			}
		}
		out[i].Pareto = !dominated
	}
	return out
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := explore.Evaluate(nil, []explore.Candidate{{}}); err == nil {
		t.Fatal("nil model accepted")
	}
	m := sharedModel(t)
	if _, err := explore.Evaluate(m, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
	bad := []explore.Candidate{{
		Config:   procgen.Default(),
		Workload: core.Workload{Name: "x", Source: "bogus\n"},
	}}
	if _, err := explore.Evaluate(m, bad); err == nil {
		t.Fatal("broken candidate accepted")
	}
	if _, err := explore.MinEnergy(nil); err == nil {
		t.Fatal("MinEnergy on empty accepted")
	}
	if _, err := explore.MinEDP(nil); err == nil {
		t.Fatal("MinEDP on empty accepted")
	}
}

func TestMixedConfigSpace(t *testing.T) {
	m := sharedModel(t)
	loops := procgen.Default()
	loops.Name = "with-loops"
	loops.HasLoops = true
	w := workloads.Accumulate()
	cands := []explore.Candidate{
		{Name: "acc/default", Config: procgen.Default(), Workload: w},
		{Name: "acc/loops", Config: loops, Workload: w},
	}
	points, err := explore.Evaluate(m, cands)
	if err != nil {
		t.Fatal(err)
	}
	// The workload does not use LOOP instructions, so both configurations
	// behave identically; neither strictly dominates, so both are Pareto.
	if points[0].Cycles != points[1].Cycles {
		t.Fatalf("cycles differ without loop usage: %d vs %d", points[0].Cycles, points[1].Cycles)
	}
	if !points[0].Pareto || !points[1].Pareto {
		t.Fatal("tied points must both be Pareto")
	}
}
