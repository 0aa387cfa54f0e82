package xlint_test

// Analyzer equivalence goldens: every registered workload and a fixed
// set of generated programs is analyzed, and everything observable
// about the result — the ordered findings, the block count, the
// abstract state before every instruction, the state along every CFG
// edge, and the WCEC/BCEC bounds under boundsModel — is reduced to one
// SHA-256 per program and compared against recorded goldens. A change
// to how the analyzer stores or computes its states must leave every
// digest unchanged.
//
// Regenerate the goldens (only when an intentional analysis change is
// made) with:
//
//	go test ./internal/xlint -run TestLintEquivalence -update-lint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/randprog"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
)

var updateLint = flag.Bool("update-lint", false, "rewrite the analyzer equivalence goldens")

const (
	lintGoldenPath = "testdata/lint_goldens.json"
	// lintRandprogs is the number of generated programs (seeds 1..n,
	// loops on) digested beside the registry.
	lintRandprogs = 200
)

// writeState hashes one abstract state: a presence byte, then all 64
// intervals.
func writeState(h hash.Hash, st *xlint.RegState) {
	if st == nil {
		h.Write([]byte{0})
		return
	}
	var buf [1 + 16*len(st.R)]byte
	buf[0] = 1
	for i, itv := range st.R {
		binary.LittleEndian.PutUint64(buf[1+16*i:], uint64(itv.Lo))
		binary.LittleEndian.PutUint64(buf[9+16*i:], uint64(itv.Hi))
	}
	h.Write(buf[:])
}

// lintDigest analyzes prog on proc and digests the result.
func lintDigest(prog *iss.Program, proc *procgen.Processor) string {
	rep := xlint.Analyze(prog, proc)
	h := sha256.New()
	for _, f := range rep.Findings {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%s\n", f.Code, f.Sev, f.PC, f.Line, f.Reg, f.Msg)
	}
	fmt.Fprintf(h, "blocks %d\n", len(rep.CFG.Blocks))
	for pc := range prog.Code {
		writeState(h, rep.Abs.StateAt(pc))
	}
	for _, blk := range rep.CFG.Blocks {
		for i := range blk.Succs {
			writeState(h, rep.Abs.EdgeOut(blk.ID, i))
		}
	}
	wc, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, boundsModel())
	if err != nil {
		fmt.Fprintf(h, "wcec error: %v\n", err)
	} else {
		fmt.Fprintf(h, "wcec %#016x %#016x %t\n", math.Float64bits(wc.BCEC), math.Float64bits(wc.WCEC), wc.Bounded)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lintDigests digests the registry and the generated programs, keyed
// by workload name or "randprog/<seed>".
func lintDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	cfgP := procgen.Default()
	for _, w := range workloads.All() {
		proc, prog, err := w.Build(cfgP)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		out[w.Name] = lintDigest(prog, proc)
	}
	proc, err := procgen.Generate(cfgP, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= lintRandprogs; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		out[fmt.Sprintf("randprog/%d", seed)] = lintDigest(prog, proc)
	}
	return out
}

// TestLintEquivalence holds the analyzer to its recorded output over
// the registry and lintRandprogs generated programs.
func TestLintEquivalence(t *testing.T) {
	got := lintDigests(t)
	if *updateLint {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(lintGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lintGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d goldens to %s", len(got), lintGoldenPath)
		return
	}

	blob, err := os.ReadFile(lintGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-lint): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("digested %d programs, goldens hold %d", len(got), len(want))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, w := got[name], want[name]
		switch {
		case w == "":
			t.Errorf("no golden for %q; regenerate with -update-lint", name)
		case g != w:
			t.Errorf("%s: analysis diverged from the recorded goldens:\n got %s\nwant %s", name, g, w)
		}
	}
}
