package experiments

import (
	"strings"
	"testing"

	"xtenergy/internal/iss"
)

// TestSabotageTolerance is the ISSUE's headline acceptance criterion:
// with 20% of the characterization suite sabotaged (all six chaos modes
// represented), the Partial policy must drop exactly the sabotaged
// workloads — each with its typed fault kind — recover the
// flaky-but-retryable one, and fit major coefficients within 5% of the
// clean fit.
func TestSabotageTolerance(t *testing.T) {
	s := testSuite(t)
	r, err := s.Sabotage()
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 40 || r.Sabotaged != 8 {
		t.Fatalf("study shape: %d sabotaged of %d, want 8 of 40", r.Sabotaged, r.Total)
	}

	// Exactly the sabotaged workloads are dropped, with the kind their
	// failure mode maps to and the attempts their retry policy allows
	// (hard faults: 1; transient stall/flaky under Retries=1: 2).
	wantFailures := map[string]struct {
		kind     string
		attempts int
	}{
		"tp02_alu_blend":       {"bad-measurement", 2}, // flaky, exhausts the retry budget
		"tp15_cover_mult":      {"mem-fault", 1},
		"tp24_cover_table":     {"panic", 1},
		"tp25_hybrid_mult":     {"bad-measurement", 1}, // NaN energy
		"tp31_hybrid_tiemac":   {"mem-fault", 1},
		"tp34_hybrid_table":    {"cancelled", 2},       // stalled stream, deadline is transient
		"tp37_memheavy_custom": {"bad-measurement", 1}, // dropped batches
		"tp40_mixed_custom":    {"bad-measurement", 1}, // NaN energy
	}
	if len(r.Failures) != len(wantFailures) {
		t.Fatalf("%d failures, want %d: %+v", len(r.Failures), len(wantFailures), r.Failures)
	}
	for _, f := range r.Failures {
		want, ok := wantFailures[f.Name]
		if !ok {
			t.Errorf("unexpected failure %s (%s)", f.Name, f.Kind())
			continue
		}
		if f.Kind() != want.kind {
			t.Errorf("%s failed as %s, want %s", f.Name, f.Kind(), want.kind)
		}
		if f.Attempts != want.attempts {
			t.Errorf("%s took %d attempts, want %d", f.Name, f.Attempts, want.attempts)
		}
		if _, ok := iss.AsFault(f.Err); !ok {
			t.Errorf("%s failure is not a typed fault: %v", f.Name, f.Err)
		}
	}
	// The recoverable flaky workload survived via retry.
	for _, f := range r.Failures {
		if f.Name == "tp05_load_stream" {
			t.Fatal("tp05_load_stream was dropped; it must recover on its retry")
		}
	}

	// The acceptance bar: major coefficients within 5% of the clean fit.
	if len(r.Rows) == 0 {
		t.Fatal("no major coefficients compared")
	}
	if r.MaxMajorDriftPct >= 5 {
		t.Fatalf("max major-coefficient drift %.2f%%, bar is 5%%:\n%s",
			r.MaxMajorDriftPct, FormatSabotage(r))
	}

	text := FormatSabotage(r)
	for _, want := range []string{"SABOTAGE TOLERANCE", "mem-fault", "bad-measurement", "max major-coefficient drift"} {
		if !strings.Contains(text, want) {
			t.Fatalf("sabotage text missing %q:\n%s", want, text)
		}
	}
}
