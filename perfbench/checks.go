package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// goldensJSON holds the outputs recorded at the commit that introduced
// the benchmark (perfbench -record-goldens). The energies, coefficients
// and simulated statistics are deterministic, so any change in them is
// a change in behaviour, not noise. Floats are stored as IEEE-754 bits.
//
//go:embed testdata/goldens.json
var goldensJSON []byte

type goldens struct {
	Coef    [core.NumVars]uint64  `json:"coef_bits"`
	Legs    map[string]refGolden  `json:"legs"`
	Heldout map[string]refGolden  `json:"heldout"`
	Explore map[string]candGolden `json:"explore"`
}

// refGolden is one reference estimation: its energy, its cycles, a
// digest of its simulated statistics and (held-out programs) the
// macro-model estimate.
type refGolden struct {
	PJ      uint64 `json:"pj_bits"`
	Cycles  uint64 `json:"cycles"`
	Stats   string `json:"stats_digest"`
	MacroPJ uint64 `json:"macro_pj_bits,omitempty"`
}

// candGolden is one registry program priced and bounded by explore.
type candGolden struct {
	Cycles  uint64 `json:"cycles"`
	Retired uint64 `json:"retired"`
	MacroPJ uint64 `json:"macro_pj_bits"`
	BCEC    uint64 `json:"bcec_bits"`
	WCEC    uint64 `json:"wcec_bits"`
	Bounded bool   `json:"bounded"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	if len(g.Legs) == 0 || len(g.Heldout) == 0 || len(g.Explore) == 0 {
		return nil, errors.New("goldens are empty; run perfbench -record-goldens")
	}
	return &g, nil
}

// digest is a short stable fingerprint of a JSON-encodable value.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // statistics structs always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

func legDigest(vars core.Vars, ops any) string { return digest([]any{vars, ops}) }

func sameBits(what string, got float64, want uint64) error {
	if math.Float64bits(got) != want {
		return fmt.Errorf("%s: got %v, golden %v", what, got, math.Float64frombits(want))
	}
	return nil
}

// checkCoef compares the fitted coefficients with the goldens.
func checkCoef(m *core.MacroModel, g *goldens) error {
	for i, c := range m.Coef {
		if err := sameBits("coefficient "+core.VarName(i), c, g.Coef[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkLeg compares one characterization observation with its golden.
func checkLeg(o core.Observation, g *goldens) error {
	want, ok := g.Legs[o.Name]
	if !ok {
		return fmt.Errorf("leg %s: no golden", o.Name)
	}
	if err := sameBits("leg "+o.Name+" energy", o.MeasuredPJ, want.PJ); err != nil {
		return err
	}
	if o.Cycles != want.Cycles {
		return fmt.Errorf("leg %s: %d cycles, golden %d", o.Name, o.Cycles, want.Cycles)
	}
	if d := legDigest(o.Vars, o.OpcodeExec); d != want.Stats {
		return fmt.Errorf("leg %s: statistics digest %s, golden %s", o.Name, d, want.Stats)
	}
	return nil
}

// heldoutRun is one held-out program's reference and macro results.
type heldoutRun struct {
	Name          string
	RefPJ         float64
	RefCycles     uint64 // cycles the ISS retired
	ConsumedCycle uint64 // cycles the estimator consumed
	MacroPJ       float64
	Stats         iss.Stats
}

// checkHeldout compares one held-out program with its golden, and checks
// that the estimator consumed exactly the cycles the ISS retired.
func checkHeldout(h heldoutRun, g *goldens) error {
	want, ok := g.Heldout[h.Name]
	if !ok {
		return fmt.Errorf("held-out %s: no golden", h.Name)
	}
	if h.ConsumedCycle != h.RefCycles {
		return fmt.Errorf("held-out %s: estimator consumed %d cycles, ISS retired %d", h.Name, h.ConsumedCycle, h.RefCycles)
	}
	if err := sameBits("held-out "+h.Name+" reference energy", h.RefPJ, want.PJ); err != nil {
		return err
	}
	if h.RefCycles != want.Cycles || h.Stats.Cycles != want.Cycles {
		return fmt.Errorf("held-out %s: %d/%d cycles, golden %d", h.Name, h.RefCycles, h.Stats.Cycles, want.Cycles)
	}
	if d := digest(h.Stats); d != want.Stats {
		return fmt.Errorf("held-out %s: statistics digest %s, golden %s", h.Name, d, want.Stats)
	}
	return sameBits("held-out "+h.Name+" macro energy", h.MacroPJ, want.MacroPJ)
}

// candResult is one explore candidate priced and bounded.
type candResult struct {
	Name    string
	Stats   iss.Stats
	MacroPJ float64
	BCEC    float64
	WCEC    float64
	Bounded bool
}

// boundEps is the absolute slack of the bracketing check, as in the
// xlint bracketing tests.
const boundEps = 1e-6

// checkCandidate applies the seed-independent oracle BCEC <= energy <=
// WCEC to a bounded candidate and, for a registry program, compares the
// result with its golden (want nil for generated programs).
func checkCandidate(c candResult, want *candGolden) error {
	if c.Bounded && (c.MacroPJ < c.BCEC-boundEps || c.MacroPJ > c.WCEC+boundEps) {
		return fmt.Errorf("candidate %s: energy %.3f pJ outside [BCEC %.3f, WCEC %.3f]", c.Name, c.MacroPJ, c.BCEC, c.WCEC)
	}
	if want == nil {
		return nil
	}
	if c.Stats.Cycles != want.Cycles || c.Stats.Retired != want.Retired {
		return fmt.Errorf("candidate %s: %d cycles / %d retired, golden %d / %d", c.Name, c.Stats.Cycles, c.Stats.Retired, want.Cycles, want.Retired)
	}
	if c.Bounded != want.Bounded {
		return fmt.Errorf("candidate %s: bounded=%v, golden %v", c.Name, c.Bounded, want.Bounded)
	}
	if err := sameBits("candidate "+c.Name+" macro energy", c.MacroPJ, want.MacroPJ); err != nil {
		return err
	}
	if err := sameBits("candidate "+c.Name+" BCEC", c.BCEC, want.BCEC); err != nil {
		return err
	}
	return sameBits("candidate "+c.Name+" WCEC", c.WCEC, want.WCEC)
}

// checkOutput compares a response or a command's stdout and status with
// the in-process rendering of the same request.
func checkOutput(what, got string, gotStatus int, want string, wantStatus int) error {
	if gotStatus != wantStatus {
		return fmt.Errorf("%s: status %d, expected %d", what, gotStatus, wantStatus)
	}
	if got != want {
		return fmt.Errorf("%s: output differs from the in-process rendering (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}

// heldoutSuite is the 20 programs priced against the fitted model: the
// Table II applications, the validation applications and the
// Reed-Solomon configurations.
func heldoutSuite() []core.Workload {
	var ws []core.Workload
	ws = append(ws, workloads.Applications()...)
	ws = append(ws, workloads.ValidationApplications()...)
	ws = append(ws, workloads.ReedSolomonConfigurations()...)
	return ws
}

// recordGoldens writes the goldens of the current code.
func recordGoldens(ctx context.Context, path string) error {
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	res, err := core.Characterize(ctx, cfg, tech, workloads.CharacterizationSuite(), core.Options{})
	if err != nil {
		return err
	}
	g := goldens{Legs: map[string]refGolden{}, Heldout: map[string]refGolden{}, Explore: map[string]candGolden{}}
	for i, c := range res.Model.Coef {
		g.Coef[i] = math.Float64bits(c)
	}
	for _, o := range res.Observations {
		g.Legs[o.Name] = refGolden{PJ: math.Float64bits(o.MeasuredPJ), Cycles: o.Cycles, Stats: legDigest(o.Vars, o.OpcodeExec)}
	}
	for _, w := range heldoutSuite() {
		h, _, _, err := heldoutTimed(ctx, cfg, tech, w, res.Model)
		if err != nil {
			return err
		}
		g.Heldout[w.Name] = refGolden{
			PJ: math.Float64bits(h.RefPJ), Cycles: h.RefCycles, Stats: digest(h.Stats),
			MacroPJ: math.Float64bits(h.MacroPJ),
		}
	}
	for _, w := range workloads.All() {
		c, err := priceCandidate(nil, 0, 0, cfg, w, res.Model)
		if err != nil {
			return err
		}
		g.Explore[w.Name] = candGolden{
			Cycles: c.Stats.Cycles, Retired: c.Stats.Retired, MacroPJ: math.Float64bits(c.MacroPJ),
			BCEC: math.Float64bits(c.BCEC), WCEC: math.Float64bits(c.WCEC), Bounded: c.Bounded,
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
