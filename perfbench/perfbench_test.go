package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/randprog"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xpowerd"
)

func candidates(seed int64, n int) []candidate {
	s := newCandStream(seed, 60)
	out := make([]candidate, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func cliCalls(seed int64, n int) []cliCall {
	s := newCLIStream(seed, workloads.Names())
	out := make([]cliCall, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// The same seed gives the same inputs; another seed gives other ones.
func TestSeedDeterminesInputs(t *testing.T) {
	names := workloads.Names()
	gens := map[string]func(seed int64) any{
		"explore": func(seed int64) any { return candidates(seed, 200) },
		"service": func(seed int64) any { return serviceSchedule(seed, names, 300, 10*time.Second) },
		"cli":     func(seed int64) any { return cliCalls(seed, 150) },
		"cli-set": func(seed int64) any { return cliRepeatSet(seed, names) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// The service mix and the explore interleave have the shapes the
// workload descriptions promise.
func TestGeneratedMixes(t *testing.T) {
	sched := serviceSchedule(3, workloads.Names(), serviceRequests, 24*time.Second)
	kinds := map[string]int{}
	windows := map[uint64]bool{}
	for i, q := range sched {
		kinds[q.Kind]++
		if i > 0 && q.At < sched[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if q.Req.ProfileWindow != 0 {
			if windows[q.Req.ProfileWindow] {
				t.Fatalf("profile window %d repeats", q.Req.ProfileWindow)
			}
			windows[q.Req.ProfileWindow] = true
		}
	}
	for _, m := range serviceMix {
		if kinds[m.kind] != m.count {
			t.Errorf("%s: %d requests, want %d", m.kind, kinds[m.kind], m.count)
		}
	}
	reg := 0
	for _, c := range candidates(3, 120) {
		if c.Registry >= 0 {
			reg++
		}
	}
	if reg != 60 {
		t.Errorf("%d registry candidates in the first 120, want 60", reg)
	}
}

// A generated program's source text assembles back to the program.
func TestProgramSourceRoundTrip(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		want := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		got, err := asm.New(proc.TIE).Assemble("rt", programSource(want))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Code, want.Code) {
			t.Fatalf("seed %d: code differs after the round trip", seed)
		}
		if len(got.Data) != 1 || got.Data[0].Addr != want.Data[0].Addr || string(got.Data[0].Bytes) != string(want.Data[0].Bytes) {
			t.Fatalf("seed %d: data differs after the round trip", seed)
		}
	}
}

// Every correctness check passes on the real output and fails when its
// expected value is deliberately wrong.
func TestChecksRejectWrongExpectations(t *testing.T) {
	ctx := context.Background()
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	res, err := core.Characterize(ctx, cfg, tech, workloads.CharacterizationSuite(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCoef(res.Model, g); err != nil {
		t.Fatal(err)
	}
	bad := *g
	bad.Coef[4]++
	if checkCoef(res.Model, &bad) == nil {
		t.Error("checkCoef accepted a wrong coefficient")
	}

	o := res.Observations[0]
	if err := checkLeg(o, g); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*refGolden){
		func(r *refGolden) { r.PJ++ },
		func(r *refGolden) { r.Cycles++ },
		func(r *refGolden) { r.Stats = "0" },
	} {
		if checkLeg(o, withLeg(g, o.Name, mutate)) == nil {
			t.Error("checkLeg accepted a wrong golden")
		}
	}

	w := workloads.Applications()[1] // gcd: short
	h, _, _, err := heldoutTimed(ctx, cfg, tech, w, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHeldout(h, g); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*refGolden){
		func(r *refGolden) { r.PJ++ },
		func(r *refGolden) { r.Cycles-- },
		func(r *refGolden) { r.Stats = "0" },
		func(r *refGolden) { r.MacroPJ++ },
	} {
		if checkHeldout(h, withHeldout(g, w.Name, mutate)) == nil {
			t.Error("checkHeldout accepted a wrong golden")
		}
	}
	dropped := h
	dropped.ConsumedCycle--
	if checkHeldout(dropped, g) == nil {
		t.Error("checkHeldout accepted an estimator that missed cycles")
	}

	bub, _ := workloads.ByName("bubsort")
	c, err := priceCandidate(nil, 0, 0, cfg, bub, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Explore["bubsort"]
	if !c.Bounded {
		t.Fatal("bubsort should get finite bounds")
	}
	if err := checkCandidate(c, &want); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*candGolden){
		func(x *candGolden) { x.Cycles++ },
		func(x *candGolden) { x.MacroPJ++ },
		func(x *candGolden) { x.WCEC++ },
		func(x *candGolden) { x.Bounded = false },
	} {
		wrong := want
		mutate(&wrong)
		if checkCandidate(c, &wrong) == nil {
			t.Error("checkCandidate accepted a wrong golden")
		}
	}
	outside := c
	outside.MacroPJ = c.WCEC * 1.01
	if checkCandidate(outside, nil) == nil {
		t.Error("checkCandidate accepted an energy above WCEC")
	}

	exp := newExpectations(ctx)
	req := xpowerd.Request{Op: xpowerd.OpLint, Workload: "tp01_alu_mix"}
	x := exp.render(req)
	if x.err != nil || x.status != xpowerd.StatusDegraded {
		t.Fatalf("lint tp01_alu_mix: status %d, err %v", x.status, x.err)
	}
	if err := exp.check("ok", req, &xpowerd.Response{Status: x.status, Output: x.out}, nil); err != nil {
		t.Fatal(err)
	}
	if exp.check("text", req, &xpowerd.Response{Status: x.status, Output: x.out + " "}, nil) == nil {
		t.Error("check accepted a different response text")
	}
	if exp.check("status", req, &xpowerd.Response{Status: xpowerd.StatusOK, Output: x.out}, nil) == nil {
		t.Error("check accepted a different status")
	}
	health := xpowerd.Request{Op: xpowerd.OpHealth}
	if exp.check("health", health, &xpowerd.Response{Status: xpowerd.StatusDegraded}, nil) == nil {
		t.Error("check accepted a degraded health answer")
	}
	call := cliCall{Tool: "xsim", Workload: "gcd"}
	x = exp.render(call.request(""))
	if checkOutput("cli", x.out, 1, x.out, x.status) == nil {
		t.Error("checkOutput accepted a wrong exit code")
	}
}

func withLeg(g *goldens, name string, mutate func(*refGolden)) *goldens {
	c := *g
	c.Legs = map[string]refGolden{}
	for k, v := range g.Legs {
		c.Legs[k] = v
	}
	v := c.Legs[name]
	mutate(&v)
	c.Legs[name] = v
	return &c
}

func withHeldout(g *goldens, name string, mutate func(*refGolden)) *goldens {
	c := *g
	c.Heldout = map[string]refGolden{}
	for k, v := range g.Heldout {
		c.Heldout[k] = v
	}
	v := c.Heldout[name]
	mutate(&v)
	c.Heldout[name] = v
	return &c
}

// selfSlack bounds how far the traced self times may sum from the
// traced wall time: children are timed inside their parents, so the
// sums agree up to clock reads between sibling spans.
const selfSlack = 0.01

// In a serial replay, the self times of all spans sum to the wall time
// of the root spans.
func TestSelfTimesSumToWall(t *testing.T) {
	ctx := context.Background()
	res, err := core.Characterize(ctx, procgen.Default(), rtlpower.FastTechnology(), workloads.CharacterizationSuite(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	stream := newCandStream(5, 60)
	reg := workloads.All()
	for i := 0; i < 40; i++ {
		c := stream.next()
		w := core.Workload{Name: "rand", Source: ""}
		if c.Registry >= 0 {
			w = reg[c.Registry]
		} else {
			w.Source = randSource(c.Rand)
		}
		if _, err := priceCandidate(tr, 0, int64(i), procgen.Default(), w, res.Model); err != nil {
			t.Fatal(err)
		}
	}
	spans := tr.Spans()
	self := selfTimes(spans)
	var sumSelf, wall time.Duration
	for i, s := range spans {
		if self[i] < 0 {
			t.Fatalf("span %s has negative self time", s.Name)
		}
		sumSelf += self[i]
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
	}
	if d := math.Abs(float64(sumSelf-wall)) / float64(wall); d > selfSlack {
		t.Errorf("self times sum to %v, roots to %v (%.2f%% apart, slack %.0f%%)", sumSelf, wall, d*100, selfSlack*100)
	}
	ls := tr.byName()
	for _, name := range []string{"procgen.Generate", "asm.Assemble", "plan.build", "iss.Run", "core.Extract", "xlint.Analyze", "xlint.ComputeWCEC"} {
		if ls[name] == nil || ls[name].n != 40 {
			t.Errorf("layer %s: want 40 spans", name)
		}
	}
}

// Overlapping children count once against their parent.
func TestSelfTimeUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "b", ID: 3, Parent: 1, Start: 40, End: 70},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 60 - 10, 40, 30, 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// The metrics the benchmark reports are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit string }
		code []struct{ name, unit string }
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", c.what, len(c.file), len(c.code))
			continue
		}
		for i := range c.file {
			if c.file[i].Name != c.code[i].name || c.file[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.what, i, c.file[i].Name, c.file[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
