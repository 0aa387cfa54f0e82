package xtenergy_test

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fusedOps are the arm64 instructions that compute x*y ± z with one
// rounding.
var fusedOps = map[string]bool{
	"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true,
	"FMADDS": true, "FMSUBS": true, "FNMADDS": true, "FNMSUBS": true,
}

// TestNoFusedMultiplyAdd fails on every function of the arm64 commands
// and examples that contains a fused multiply-add. The Go spec lets a
// compiler fuse x*y + z into one instruction that rounds once. The
// arm64 compiler does; the amd64 and 386 compilers never do. A fused
// function would compute other low bits on arm64 than the goldens pin
// on amd64 and 386, and a remote report would differ from a local one
// across the two. An explicit float64(x*y) conversion rounds the
// product, which the spec says prevents the fusion. Inlining stays on:
// some products fuse only once their function is inlined.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command and example for arm64")
	}
	dir := t.TempDir()
	env := append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	runOutput(t, env, ".", "go", "build", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fused := map[string]bool{}
	for _, b := range bins {
		out := runOutput(t, env, ".", "go", "tool", "objdump", "-s", `^(xtenergy/|main\.)`, filepath.Join(dir, b.Name()))
		var fn string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "TEXT <symbol>(SB) <file>", then one
			// "<file:line> <addr> <encoding> <op> <args>" line per instruction.
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
				fn, _, _ = strings.Cut(rest, "(SB)")
				continue
			}
			if f := strings.Fields(line); len(f) >= 4 && fusedOps[f[3]] {
				fused[fn] = true
			}
		}
	}
	names := make([]string, 0, len(fused))
	for fn := range fused {
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		t.Errorf("%s fuses a multiply-add on arm64: wrap the product in float64(...)", fn)
	}
}
