package xtenergy_test

// The artifact-digest tests pin the engine's results at full precision.
// TestOutputGoldens sees a numeric change only where it moves a printed
// digit. An artifact is the encoding/json payload the engine stores,
// and a float64 marshals in its shortest round-trip form, so the
// SHA-256 of an artifact changes with any bit of any energy,
// coefficient or bound. Each test covers one op over the registry, in
// process on a memory-only engine: with NoCache, except characterize,
// whose artifact is decoded from the bytes the store keeps. Regenerate
// the table only for a change that the commit names:
//
//	go test -run TestArtifactDigests -update-output .

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/engine"
	"xtenergy/internal/procgen"
	"xtenergy/internal/regress"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

const artifactGoldenPath = "testdata/artifact_goldens.json"

func TestArtifactDigestsEstimateDefault(t *testing.T) {
	checkEstimateDigests(t, "default", rtlpower.DefaultTechnology())
}

func TestArtifactDigestsEstimateFast(t *testing.T) {
	checkEstimateDigests(t, "fast", rtlpower.FastTechnology())
}

func checkEstimateDigests(t *testing.T, techName string, tech rtlpower.Technology) {
	eachWorkloadDigest(t, "estimate "+techName, func(e *engine.Engine, w core.Workload) (any, error) {
		a, _, err := e.Estimate(context.Background(), engine.EstimateSpec{
			Workload: w, Config: procgen.Default(), Tech: tech, NoCache: true,
		})
		return a, err
	})
}

func TestArtifactDigestsSimulate(t *testing.T) {
	eachWorkloadDigest(t, "simulate", func(e *engine.Engine, w core.Workload) (any, error) {
		a, _, err := e.Simulate(context.Background(), engine.SimulateSpec{
			Workload: w, Config: procgen.Default(), NoCache: true,
		})
		return a, err
	})
}

func TestArtifactDigestsLint(t *testing.T) {
	eachWorkloadDigest(t, "lint", func(e *engine.Engine, w core.Workload) (any, error) {
		a, _, err := e.Lint(context.Background(), engine.LintSpec{
			Workload: w, Config: procgen.Default(), NoCache: true,
		})
		return a, err
	})
}

// TestArtifactDigestsCharacterize digests the fitted model's plain
// fields, as the engine's characterize artifact stores them:
// MacroModel's own JSON encoding is lossy.
func TestArtifactDigestsCharacterize(t *testing.T) {
	e := artifactEngine(t)
	got := map[string]string{}
	for _, tc := range []struct {
		name string
		tech rtlpower.Technology
	}{
		{"default", rtlpower.DefaultTechnology()},
		{"fast", rtlpower.FastTechnology()},
	} {
		cr, _, err := e.Characterize(context.Background(), engine.CharacterizeSpec{
			Config: procgen.Default(), Tech: tc.tech,
			Workloads: workloads.CharacterizationSuite(),
		})
		if err != nil {
			t.Fatalf("characterize %s: %v", tc.name, err)
		}
		got["characterize "+tc.name] = artifactDigest(t, struct {
			Coef         core.Vars          `json:"coef"`
			CoefStdErr   core.Vars          `json:"coef_std_err"`
			Fit          *regress.Fit       `json:"fit"`
			Observations []core.Observation `json:"observations"`
		}{cr.Model.Coef, cr.Model.CoefStdErr, cr.Model.Fit, cr.Observations})
	}
	checkArtifactDigests(t, "characterize", got)
}

// eachWorkloadDigest runs op on every registry workload and checks one
// row per workload, keyed "<section> <workload>".
func eachWorkloadDigest(t *testing.T, section string, op func(*engine.Engine, core.Workload) (any, error)) {
	e := artifactEngine(t)
	got := map[string]string{}
	for _, w := range workloads.All() {
		a, err := op(e, w)
		if err != nil {
			t.Fatalf("%s %s: %v", section, w.Name, err)
		}
		got[section+" "+w.Name] = artifactDigest(t, a)
	}
	checkArtifactDigests(t, section, got)
}

func artifactEngine(t *testing.T) *engine.Engine {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every workload through the engine")
	}
	e, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func artifactDigest(t *testing.T, a any) string {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

// checkArtifactDigests compares one section's rows, the recorded keys
// that start with section and a space, against got. Under
// -update-output it rewrites that section and keeps the others.
func checkArtifactDigests(t *testing.T, section string, got map[string]string) {
	t.Helper()
	want := map[string]string{}
	data, err := os.ReadFile(artifactGoldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	case !(*updateOutput && os.IsNotExist(err)):
		t.Fatalf("%v (run with -update-output to record)", err)
	}
	// mine holds this section's recorded rows; want keeps the others
	// for a rewrite.
	mine := map[string]string{}
	for k, v := range want {
		if strings.HasPrefix(k, section+" ") {
			mine[k] = v
			delete(want, k)
		}
	}
	if !*updateOutput {
		compareRows(t, got, mine)
		return
	}
	for k, v := range got {
		want[k] = v
	}
	data, err = json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artifactGoldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d %s rows to %s", len(got), section, artifactGoldenPath)
}
