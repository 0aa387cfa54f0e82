// End-to-end tests of the command-line tools, run via "go run" or
// built once where the exit status matters. They are skipped under
// -short.
package xtenergy_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xtenergy/internal/xpowerd"
)

// TestMain keeps the artifact store of every tool these tests start
// memory-only: each build of a tool has its own fingerprint, so entries
// it wrote to the user's cache directory would never be read again.
func TestMain(m *testing.M) {
	os.Setenv("XTENERGY_MEMO_DIR", "off")
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// builtCommands builds ./cmd/... and ./examples/... once per test
// binary and returns the directory that holds the binaries. Tests that
// check exit statuses need it: go run flattens exit codes.
func builtCommands(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "xtenergy-cmd-"); buildErr != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", buildDir+string(filepath.Separator), "./cmd/...", "./examples/...").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build ./cmd/... ./examples/...: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIXsim(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	out := runCLI(t, "./cmd/xsim", "-list")
	for _, want := range []string{"tp01_alu_mix", "ins_sort", "rs_gffold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xsim -list missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "./cmd/xsim", "-w", "des", "-vars")
	for _, want := range []string{"cycles=", "macro-model variables", "custom-side-effect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xsim -w des missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "./cmd/xsim", "-disasm", "-w", "gcd")
	if !strings.Contains(out, "custom.") {
		t.Fatalf("disassembly missing custom instruction:\n%s", out)
	}
}

func TestCLICharacterizeAndEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	model := filepath.Join(t.TempDir(), "model.json")
	out := runCLI(t, "./cmd/characterize", "-fast", "-save", model)
	for _, want := range []string{"TABLE I", "FIG. 3", "model written to"} {
		if !strings.Contains(out, want) {
			t.Fatalf("characterize missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "./cmd/estimate", "-fast", "-model", model, "-w", "gcd")
	if !strings.Contains(out, "macro-model estimate:") {
		t.Fatalf("estimate output:\n%s", out)
	}
	if strings.Contains(out, "characterizing") {
		t.Fatal("estimate re-characterized despite -model")
	}
}

func TestCLIXpower(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	out := runCLI(t, "./cmd/xpower", "-fast", "-w", "accumulate", "-profile", "400")
	for _, want := range []string{"per-block energy breakdown", "clock", "custom hardware:", "power profile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xpower missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	report := filepath.Join(t.TempDir(), "report.txt")
	out := runCLI(t, "./cmd/experiments", "-fast", "-out", report, "fig4")
	if !strings.Contains(out, "profiles track: true") {
		t.Fatalf("experiments fig4 output:\n%s", out)
	}
}

func TestCLIXprofileAndExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	out := runCLI(t, "./cmd/xprofile", "-fast", "-w", "gcd", "-top", "3")
	for _, want := range []string{"energy by code region", "g_inner", "hottest 3 instructions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xprofile missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "./cmd/explore", "-fast")
	for _, want := range []string{"DESIGN SPACE", "Pareto frontier", "lowest energy:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explore missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXsimJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	out := runCLI(t, "./cmd/xsim", "-json", "-w", "des")
	for _, want := range []string{`"workload": "des"`, `"cycles"`, `"custom-side-effect"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("xsim -json missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXlint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	out := runCLI(t, "./cmd/xlint", "-w", "rs_gffold")
	if !strings.Contains(out, "clean") {
		t.Fatalf("xlint on a clean workload:\n%s", out)
	}
	out = runCLI(t, "./cmd/xlint", "-energy-bounds", "-w", "gcd")
	for _, want := range []string{"static energy bounds", "pJ/exec", "per-invocation", "per iteration"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xlint -energy-bounds missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "./cmd/xlint", "-json", "-w", "rs_base")
	for _, want := range []string{`"clean": true`, `"findings"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("xlint -json missing %q:\n%s", want, out)
		}
	}
	// Findings make the exit status non-zero; go run flattens any failure
	// to 1, so just assert failure plus the diagnostic on stdout.
	cmd := exec.Command("go", "run", "./cmd/xlint", "-w", "tp01_alu_mix")
	cliOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("xlint on a stress kernel should exit non-zero:\n%s", cliOut)
	}
	if !strings.Contains(string(cliOut), "dead-write") {
		t.Fatalf("xlint stress-kernel output missing dead-write:\n%s", cliOut)
	}
}

// runTool runs one built command in dir ("" for the current one) and
// returns its exit status and stderr.
func runTool(t *testing.T, bin, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// startDaemon starts the built xpowerd on the unix socket sock and
// waits until it accepts connections.
func startDaemon(t *testing.T, bin, sock string, args ...string) *exec.Cmd {
	t.Helper()
	d := exec.Command(filepath.Join(bin, "xpowerd"), append([]string{"-quiet", "-listen", "", "-unix", sock}, args...)...)
	var stderr strings.Builder
	d.Stderr = &stderr
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.ProcessState == nil {
			d.Process.Kill()
			d.Wait()
		}
	})
	for i := 0; i < 100; i++ {
		if c, err := xpowerd.Dial("unix:"+sock, time.Second); err == nil {
			c.Close()
			return d
		}
		time.Sleep(50 * time.Millisecond)
	}
	d.Process.Kill()
	d.Wait() // stderr is complete once Wait returns
	t.Fatalf("xpowerd never listened on %s:\n%s", sock, stderr.String())
	return nil
}

// stopDaemon sends SIGTERM and returns the daemon's exit status.
func stopDaemon(t *testing.T, d *exec.Cmd) int {
	t.Helper()
	if err := d.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.Wait()
	return d.ProcessState.ExitCode()
}

// TestCLIExitStatus pins the exit status every command takes from
// internal/cli: 0 clean, 1 completed with findings or a degraded
// result, 2 any failure, whose stderr starts with "<name>: ".
func TestCLIExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	bin := builtCommands(t)
	dir := t.TempDir()
	live := "unix:" + filepath.Join(dir, "xpowerd.sock")
	dead := "unix:" + filepath.Join(dir, "dead.sock")
	missing := filepath.Join(dir, "missing.json")
	daemon := startDaemon(t, bin, strings.TrimPrefix(live, "unix:"))

	cases := []struct {
		args   []string
		status int
		// stderr must contain want; a failure's stderr must also start
		// with "<name>: " unless usage is set (the flag package's usage
		// text comes first).
		want  string
		usage bool
	}{
		{args: []string{"xsim", "-w", "gcd"}},
		{args: []string{"xlint", "-w", "rs_gffold"}},
		{args: []string{"xlint", "-w", "tp01_alu_mix"}, status: 1},
		{args: []string{"xlint", "-remote", live, "-w", "tp01_alu_mix"}, status: 1},
		{args: []string{"xpower", "-w", "nosuch"}, status: 2, want: `unknown workload "nosuch"`},
		{args: []string{"xsim", "-w", "nosuch"}, status: 2, want: `unknown workload "nosuch"`},
		{args: []string{"xprofile", "-w", "nosuch"}, status: 2, want: `unknown workload "nosuch"`},
		{args: []string{"xlint", "-w", "nosuch"}, status: 2, want: `unknown workload "nosuch"`},
		{args: []string{"estimate", "-w", "nosuch"}, status: 2, want: `unknown workload "nosuch"`},
		{args: []string{"characterize", "-fast", "-timeout", "1ns", "-partial"}, status: 2, want: "partial characterization ill-posed"},
		{args: []string{"experiments", "bogus"}, status: 2, want: `unknown experiment "bogus"`},
		{args: []string{"xpower", "-remote", dead, "-w", "gcd"}, status: 2, want: "dead.sock"},
		{args: []string{"xpower", "-remote", live, "-w", "nosuch"}, status: 2, want: `remote invalid: unknown workload "nosuch"`},
		{args: []string{"xlint", "-wcec", "-model", missing, "-w", "gcd"}, status: 2, want: "missing.json"},
		{args: []string{"xsim", "-maxcycles", "100", "-w", "des"}, status: 2, want: "\nfault report:\n  kind:  watchdog\n"},
		{args: []string{"xsim", "-trace", "-1", "-w", "gcd"}, status: 2, want: "-trace -1: N must not be negative"},
		{args: []string{"xsim"}, status: 2, want: "\nxsim: need -list, -w <name>, or an assembly file\n", usage: true},
		{args: []string{"xlint"}, status: 2, want: "\nxlint: need -list, -w <name>, or an assembly file\n", usage: true},
		{args: []string{"xpower", "-bogus"}, status: 2, want: "flag provided but not defined: -bogus", usage: true},
		// A package pattern that matches nothing is a failure, not a
		// clean repository.
		{args: []string{"xanalyze", "./nosuchdir"}, status: 2, want: "directory not found"},
		{args: []string{"xanalyze", "xtenergy/nosuch"}, status: 2, want: "xtenergy/nosuch"},
		{args: []string{"xanalyze", "./nosuch/..."}, status: 2, want: "./nosuch/..."},
	}
	for _, tc := range cases {
		status, stderr := runTool(t, bin, "", tc.args...)
		if status != tc.status {
			t.Errorf("%v: exit status %d, want %d\n%s", tc.args, status, tc.status, stderr)
			continue
		}
		if tc.status == 2 && !tc.usage && !strings.HasPrefix(stderr, tc.args[0]+": ") {
			t.Errorf("%v: stderr does not start with %q:\n%s", tc.args, tc.args[0]+": ", stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr lacks %q:\n%s", tc.args, tc.want, stderr)
		}
	}

	// xanalyze's findings exit 1: a throwaway module whose hot-path
	// function formats an error.
	mod := t.TempDir()
	for name, body := range map[string]string{
		"go.mod": "module example.com/hot\n\ngo 1.22\n",
		"hot.go": "package hot\n\nimport \"fmt\"\n\n//xtenergy:hotpath\nfunc step(pc int) error { return fmt.Errorf(\"pc %d\", pc) }\n",
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if status, stderr := runTool(t, bin, mod, "xanalyze"); status != 1 || !strings.HasPrefix(stderr, "xanalyze: 1 finding(s)") {
		t.Errorf("xanalyze on a hot-path violation: exit status %d, want 1\n%s", status, stderr)
	}

	// An idle daemon drains cleanly and exits 0.
	if status := stopDaemon(t, daemon); status != 0 {
		t.Errorf("clean drain: xpowerd exit status %d, want 0", status)
	}

	// A forced drain exits 1: a simulation that loops until the
	// watchdog is still running when the 1ms drain deadline passes.
	sock := filepath.Join(dir, "busy.sock")
	daemon = startDaemon(t, bin, sock, "-drain", "1ms")
	client, err := xpowerd.Dial("unix:"+sock, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		client.Do(context.Background(), &xpowerd.Request{
			Op: xpowerd.OpSimulate, Source: "loop:\n    addi a2, a2, 1\n    j loop\n", NoCache: true,
		})
	}()
	for i := 0; ; i++ {
		h, err := xpowerd.Dial("unix:"+sock, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := h.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
		h.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Health.ActiveJobs > 0 {
			break
		}
		if i == 500 {
			t.Fatal("the looping simulation never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status := stopDaemon(t, daemon); status != 1 {
		t.Errorf("forced drain: xpowerd exit status %d, want 1", status)
	}
	<-done
}

// TestXsimTraceMemoryBounded runs xsim -trace 1 on a loop that retires
// 4,000,002 instructions under a 256 MiB RLIMIT_DATA, set by the shell
// for that child alone. The trace streams through the simulator's sink
// and xsim keeps only the entries it prints, so the run needs a few MB
// however long it is. GOMAXPROCS=1 keeps the runtime's own per-P
// reservations inside the limit. RLIMIT_AS cannot be used instead: the
// Go runtime fails to start under it.
func TestXsimTraceMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests are slow")
	}
	if runtime.GOOS != "linux" {
		t.Skip("the data limit is exercised on Linux only")
	}
	xsim := filepath.Join(builtCommands(t), "xsim")
	dir := t.TempDir()
	const src = " movi a2, 1000000\nloop:\n addi a3, a3, 1\n addi a4, a4, 2\n addi a2, a2, -1\n bnez a2, loop\n ret\n"
	if err := os.WriteFile(filepath.Join(dir, "count.s"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	plain := exec.Command(xsim, "count.s")
	plain.Dir = dir
	want, err := plain.Output()
	if err != nil {
		t.Fatalf("xsim count.s: %v", err)
	}
	limited := exec.Command("sh", "-c", `ulimit -d 262144; exec "$0" "$@"`, xsim, "-trace", "1", "count.s")
	limited.Dir = dir
	limited.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stderr strings.Builder
	limited.Stderr = &stderr
	got, err := limited.Output()
	if err != nil {
		t.Fatalf("xsim -trace 1 under a 256 MiB data limit: %v\n%.2000s", err, stderr.String())
	}
	// One trace line and a blank line, then the plain report.
	lines := strings.SplitN(string(got), "\n", 3)
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "     0  pc=0 ") || lines[1] != "" || lines[2] != string(want) {
		t.Fatalf("xsim -trace 1 printed:\n%s\nwant one trace line, a blank line and:\n%s", got, want)
	}
}
