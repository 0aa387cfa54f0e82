package engine

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFileFingerprint builds one tiny program five ways. Two plain
// builds must share a fingerprint, and a build with one -X string
// changed must not. On ELF that fingerprint is the content ID, the last
// part of the build ID go tool buildid prints. Builds whose build ID is
// empty or custom have no content ID, so each is fingerprinted by the
// SHA-256 of its file.
func TestFileFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a program five times")
	}
	dir := t.TempDir()
	for name, text := range map[string]string{
		"go.mod":  "module fptiny\n\ngo 1.22\n",
		"main.go": "package main\n\nvar tag = \"a\"\n\nfunc main() { println(tag) }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	build := func(out string, flags ...string) string {
		t.Helper()
		path := filepath.Join(dir, out)
		cmd := exec.Command("go", append(append([]string{"build", "-o", path}, flags...), ".")...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", flags, err, b)
		}
		return path
	}
	fingerprint := func(path string) string {
		t.Helper()
		fp, err := fileFingerprint(path)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	plain1, plain2 := build("plain1"), build("plain2")
	fp := fingerprint(plain1)
	if got := fingerprint(plain2); got != fp {
		t.Errorf("two plain builds: fingerprints %s and %s, want equal", fp, got)
	}
	if got := fingerprint(build("tagged", "-ldflags=-X main.tag=b")); got == fp {
		t.Errorf("build with main.tag changed shares fingerprint %s", fp)
	}
	if f, err := elf.Open(plain1); err == nil {
		f.Close()
		b, err := exec.Command("go", "tool", "buildid", plain1).Output()
		if err != nil {
			t.Fatal(err)
		}
		id := strings.TrimSpace(string(b))
		if want := "go:" + id[strings.LastIndexByte(id, '/')+1:]; fp != want {
			t.Errorf("plain build (build ID %s): fingerprint %s, want %s", id, fp, want)
		}
	}

	for _, flag := range []string{"-ldflags=-buildid=", "-ldflags=-buildid=redacted"} {
		path := build("hashed", flag)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := fingerprint(path), "sha256:"+hex.EncodeToString(sum[:]); got != want {
			t.Errorf("build with %s: fingerprint %s, want %s", flag, got, want)
		}
	}
}
