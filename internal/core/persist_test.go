package core_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	cr := fastChar(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := cr.Model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < core.NumVars; i++ {
		if loaded.Coef[i] != cr.Model.Coef[i] {
			t.Fatalf("coefficient %s changed: %g vs %g",
				core.VarName(i), loaded.Coef[i], cr.Model.Coef[i])
		}
	}
	// Diagnostics survive at summary level.
	if math.Abs(loaded.Fit.R2-cr.Model.Fit.R2) > 1e-12 {
		t.Fatalf("R2 lost: %g vs %g", loaded.Fit.R2, cr.Model.Fit.R2)
	}
	// A loaded model estimates identically.
	w := workloads.DES()
	a, err := cr.Model.EstimateWorkload(procgen.Default(), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.EstimateWorkload(procgen.Default(), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyPJ != b.EnergyPJ {
		t.Fatalf("loaded model estimates differently: %g vs %g", a.EnergyPJ, b.EnergyPJ)
	}
}

func TestModelFileIsReadable(t *testing.T) {
	cr := fastChar(t)
	data, err := cr.Model.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"format": 1`, `"arith"`, `"hw:table"`, `"r2"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("model JSON missing %q:\n%s", want, s)
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := core.LoadModel("/nonexistent/model.json"); err == nil {
		t.Fatal("missing file loaded")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")

	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bad); err == nil {
		t.Fatal("garbage loaded")
	}

	if err := os.WriteFile(bad, []byte(`{"format": 99, "coefficients_pj": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bad); err == nil {
		t.Fatal("wrong format version loaded")
	}

	if err := os.WriteFile(bad, []byte(`{"format": 1, "coefficients_pj": {"bogus-var": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bad); err == nil {
		t.Fatal("unknown coefficient name loaded")
	}
}

func TestLoadModelRejectsCorruptCoefficients(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	cases := []struct {
		name, json, wantErr string
	}{
		{"nan", `{"format": 1, "coefficients_pj": {"arith": NaN}}`, ""},
		{"nan_string_rejected_by_json", `{"format": 1, "coefficients_pj": {"arith": "NaN"}}`, ""},
		{"wrong_num_vars", `{"format": 1, "num_vars": 7, "coefficients_pj": {"arith": 5}}`, "wrong-length"},
		{"truncated_vector", `{"format": 1, "num_vars": 21, "coefficients_pj": {"arith": 5}}`, "truncated"},
		{"empty_coefficients", `{"format": 1, "coefficients_pj": {}}`, "no coefficients"},
		{"cut_off_file", `{"format": 1, "coefficients_pj": {"arith":`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(bad, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := core.LoadModel(bad)
			if err == nil {
				t.Fatalf("corrupt model loaded: %s", tc.json)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadModelRejectsNonFiniteValues(t *testing.T) {
	// JSON cannot encode NaN/Inf literally, but a hand-edited or
	// corrupted file can smuggle huge values through exponents that
	// overflow to +Inf on some writers; build one via Save refusing
	// first, then a forged in-range file with an Inf written as 1e999.
	dir := t.TempDir()
	bad := filepath.Join(dir, "inf.json")
	if err := os.WriteFile(bad, []byte(`{"format": 1, "coefficients_pj": {"arith": 1e999}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bad); err == nil {
		t.Fatal("infinite coefficient loaded")
	}
}

func TestSaveRejectsNonFiniteModel(t *testing.T) {
	cr := fastChar(t)
	m := *cr.Model
	m.Coef[core.VArith] = math.NaN()
	dir := t.TempDir()
	path := filepath.Join(dir, "nan.json")
	if err := m.Save(path); err == nil {
		t.Fatal("model with NaN coefficient saved")
	} else if !strings.Contains(err.Error(), "arith") {
		t.Fatalf("error %q does not name the bad coefficient", err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("rejected save still wrote a file")
	}
	m.Coef[core.VArith] = math.Inf(1)
	if err := m.Save(path); err == nil {
		t.Fatal("model with Inf coefficient saved")
	}
}

func TestLoadModelMissingCoefficientsDefaultZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, []byte(`{"format": 1, "coefficients_pj": {"arith": 5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Coef[core.VArith] != 5 || m.Coef[core.VLoad] != 0 {
		t.Fatalf("partial load wrong: %v", m.Coef)
	}
}
