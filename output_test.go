package xtenergy_test

// TestOutputGoldens pins the bytes the commands print. Each row is one
// invocation of a built command; the table records the SHA-256 of its
// stdout, the SHA-256 of its stderr and its exit status. A refactor
// must pass it unchanged. Regenerate the table only for an output
// change that the commit names:
//
//	go test -run TestOutputGoldens -update-output .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xtenergy/internal/workloads"
)

var updateOutput = flag.Bool("update-output", false, "rewrite the command-output goldens")

const outputGoldenPath = "testdata/output_goldens.json"

// outputGolden is one invocation's recorded output.
type outputGolden struct {
	Stdout string `json:"stdout_sha256"`
	Stderr string `json:"stderr_sha256"`
	Status int    `json:"status"`
}

// loopSource is the assembly file the file-input rows run, from the
// test's working directory so its name prints the same on every host.
const loopSource = `
 movi a2, 40
loop:
 addi a3, a3, 3
 addi a2, a2, -1
 bnez a2, loop
 ret
`

// outputRows lists the pinned invocations: xsim's trace, -vars and
// -json modes, xlint's four report modes, xpower's uncached reference
// report at both details and xprofile over the whole registry, the
// edge rows around them, and the four examples.
func outputRows() [][]string {
	var rows [][]string
	names := workloads.Names()
	for _, w := range names {
		rows = append(rows,
			[]string{"xsim", "-trace", "7", "-w", w},
			[]string{"xsim", "-trace", "3", "-vars", "-w", w},
			[]string{"xsim", "-vars", "-w", w},
			[]string{"xsim", "-json", "-w", w})
	}
	for _, w := range names {
		rows = append(rows,
			[]string{"xlint", "-w", w},
			[]string{"xlint", "-json", "-notes", "-w", w},
			[]string{"xlint", "-wcec", "-json", "-w", w},
			[]string{"xlint", "-energy-bounds", "-w", w})
	}
	rows = append(rows,
		// Around the 256-entry trace batch, and past the end of the run.
		[]string{"xsim", "-trace", "256", "-w", "rs_base"},
		[]string{"xsim", "-trace", "257", "-w", "rs_base"},
		[]string{"xsim", "-trace", "300", "-w", "rs_base"},
		[]string{"xsim", "-trace", "100000000", "-w", "gcd"},
		[]string{"xsim", "-trace", "-1", "-w", "gcd"},
		[]string{"xsim", "-trace", "5", "-vars", "-w", "des"},
		[]string{"xsim", "-trace", "5", "-maxcycles", "100", "-w", "des"},
		[]string{"xsim", "-trace", "4", "-json", "-w", "des"},
		[]string{"xsim", "-trace", "6", "loop.s"})
	// The reference estimator's rendered energies and per-window
	// profiles, at the default detail and at -fast's.
	for _, w := range names {
		rows = append(rows,
			[]string{"xpower", "-no-cache", "-w", w},
			[]string{"xpower", "-no-cache", "-fast", "-w", w},
			[]string{"xpower", "-no-cache", "-fast", "-profile", "500", "-w", w})
	}
	for _, w := range names {
		rows = append(rows, []string{"xprofile", "-fast", "-top", "5", "-w", w})
	}
	rows = append(rows,
		[]string{"xprofile", "-fast", "-top", "1000", "-w", "rs_base"},
		[]string{"xprofile", "-fast", "-top", "0", "-w", "gcd"},
		[]string{"xprofile", "-fast", "-w", "nosuch"})
	rows = append(rows,
		[]string{"customalu"},
		[]string{"designspace"},
		[]string{"loopoption"},
		[]string{"quickstart"})
	return rows
}

func TestOutputGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	bin := builtCommands(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "loop.s"), []byte(loopSource), 0o644); err != nil {
		t.Fatal(err)
	}
	// One store for every row, so xprofile characterizes once and the
	// later rows read the model back from disk.
	env := append(os.Environ(), "XTENERGY_MEMO_DIR="+filepath.Join(dir, "memo"))

	got := map[string]outputGolden{}
	for _, args := range outputRows() {
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		cmd.Dir, cmd.Env = dir, env
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", args, err)
		}
		out := stdout.Bytes()
		if args[0] == "designspace" {
			// Its last line is a wall-clock timing.
			out = out[:bytes.LastIndexByte(bytes.TrimSuffix(out, []byte("\n")), '\n')+1]
		}
		got[strings.Join(args, " ")] = outputGolden{
			Stdout: digest(out),
			Stderr: digest(stderr.Bytes()),
			Status: cmd.ProcessState.ExitCode(),
		}
	}

	if *updateOutput {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outputGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), outputGoldenPath)
		return
	}

	data, err := os.ReadFile(outputGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-output to record)", err)
	}
	var want map[string]outputGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	compareRows(t, got, want)
}

// compareRows fails on every row of got that has no recorded row or
// differs from it, and on every recorded row that got lacks.
func compareRows[T comparable](t *testing.T, got, want map[string]T) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no recorded row", k)
		case got[k] != w:
			t.Errorf("%s: changed\n got %+v\nwant %+v", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded row no longer runs", k)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
