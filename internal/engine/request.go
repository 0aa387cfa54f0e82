package engine

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/regress"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/tie"
)

// Schema versions the canonical request serialization and the artifact
// encodings. Bump it whenever either changes shape: a bumped schema
// changes every digest, so old artifacts are simply never addressed
// again (invalidation by unreachability, not deletion).
const Schema = 1

// envelope is the outermost canonical request record. Binary
// fingerprints the running executable (see binaryFingerprint): two
// different builds of the pipeline never share artifacts, which is
// what makes it sound to identify TIE semantics closures by
// instruction name and structure — within one binary, the spec
// determines the code.
type envelope struct {
	Schema int    `json:"schema"`
	Binary string `json:"binary"`
	Op     string `json:"op"`
	Req    any    `json:"req"`
}

// canonicalKey serializes one request for digesting. encoding/json is
// canonical here by construction: struct fields marshal in declaration
// order and map keys marshal sorted.
func canonicalKey(op string, req any) ([]byte, error) {
	fp, err := binaryFingerprint()
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Schema: Schema, Binary: fp, Op: op, Req: req})
}

var binFP struct {
	once sync.Once
	id   string
	err  error
}

// binaryFingerprint identifies the running executable, once per
// process. Failure to resolve it disables caching (the engine bypasses
// the store) rather than risking stale artifacts across code versions.
func binaryFingerprint() (string, error) {
	binFP.once.Do(func() {
		path, err := os.Executable()
		if err != nil {
			binFP.err = err
			return
		}
		binFP.id, binFP.err = fileFingerprint(path)
	})
	return binFP.id, binFP.err
}

// fileFingerprint identifies the executable at path by the content ID
// the Go linker stamped into it, or, when it carries none, by the
// SHA-256 of the whole file. The prefixes keep the two kinds apart.
func fileFingerprint(path string) (string, error) {
	if id := goContentID(path); id != "" {
		return "go:" + id, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// goContentID reads the build ID in an ELF executable's
// .note.go.buildid. cmd/go gives an executable four parts,
// actionID(binary)/actionID(main.a)/contentID(main.a)/contentID(binary),
// and the last is a hash of the linked file with the ID's own bytes
// zeroed, so any change to code or data changes it. (A binary cmd/go
// leaves unrewritten after linking keeps the link's action ID there, a
// hash of every input to the link.) It returns "" when path is not ELF
// or has no such note, and when the ID is not of that shape: empty or
// custom (-ldflags=-buildid=...).
func goContentID(path string) string {
	f, err := elf.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return ""
	}
	note, err := sec.Data()
	// An ELF note: name size, descriptor size and type, then the name
	// "Go" padded to 4 bytes, then the build ID.
	if err != nil || len(note) < 16 || string(note[12:16]) != "Go\x00\x00" {
		return ""
	}
	bo := f.ByteOrder
	nameSize, idSize, typ := bo.Uint32(note), bo.Uint32(note[4:]), bo.Uint32(note[8:])
	if nameSize != 4 || typ != 4 || uint64(idSize) > uint64(len(note)-16) {
		return ""
	}
	parts := strings.Split(string(note[16:16+idSize]), "/")
	if len(parts) != 4 || slices.Contains(parts, "") {
		return ""
	}
	return parts[3]
}

// Per-op canonical request records. They cover everything that can
// change the *artifact*; render-only parameters (xsim -vars,
// xlint -notes) are deliberately absent so one artifact
// serves every rendering of the same computation.

type estimateReq struct {
	Workload      workloadRec         `json:"workload"`
	Config        procgen.Config      `json:"config"`
	Tech          rtlpower.Technology `json:"tech"`
	ProfileWindow uint64              `json:"profile_window,omitempty"`
}

type simulateReq struct {
	Workload workloadRec    `json:"workload"`
	Config   procgen.Config `json:"config"`
}

type lintReq struct {
	Workload workloadRec    `json:"workload"`
	Config   procgen.Config `json:"config"`
	Disable  []string       `json:"disable,omitempty"`
}

type characterizeReq struct {
	Config    procgen.Config      `json:"config"`
	Tech      rtlpower.Technology `json:"tech"`
	Workloads []workloadRec       `json:"workloads"`
	Regress   regress.Options     `json:"regress"`
}

// workloadRec is the content identity of one workload: name, source
// text, and the full TIE extension structure. Filenames play no part.
type workloadRec struct {
	Name       string   `json:"name"`
	Source     string   `json:"source"`
	Ext        *extRec  `json:"ext,omitempty"`
	LintExempt []string `json:"lint_exempt,omitempty"`
}

type extRec struct {
	Name          string              `json:"name"`
	NumCustomRegs int                 `json:"num_custom_regs"`
	Instructions  []instrRec          `json:"instructions"`
	Tables        map[string][]uint32 `json:"tables,omitempty"`
}

type instrRec struct {
	Name          string  `json:"name"`
	Latency       int     `json:"latency"`
	ReadsGeneral  bool    `json:"reads_general"`
	WritesGeneral bool    `json:"writes_general"`
	ImmOperand    bool    `json:"imm_operand"`
	Datapath      []dpRec `json:"datapath"`
}

type dpRec struct {
	Name    string `json:"name"`
	Cat     int    `json:"cat"`
	Width   int    `json:"width"`
	Entries int    `json:"entries,omitempty"`
	OnBus   bool   `json:"on_bus,omitempty"`
}

func workloadRecord(w core.Workload) workloadRec {
	r := workloadRec{Name: w.Name, Source: w.Source, LintExempt: w.LintExempt}
	if w.Ext != nil {
		r.Ext = extRecord(w.Ext)
	}
	return r
}

func extRecord(e *tie.Extension) *extRec {
	r := &extRec{Name: e.Name, NumCustomRegs: e.NumCustomRegs, Tables: e.Tables}
	for _, in := range e.Instructions {
		ir := instrRec{
			Name: in.Name, Latency: in.Latency,
			ReadsGeneral: in.ReadsGeneral, WritesGeneral: in.WritesGeneral,
			ImmOperand: in.ImmOperand,
		}
		for _, d := range in.Datapath {
			ir.Datapath = append(ir.Datapath, dpRec{
				Name: d.Name, Cat: int(d.Cat), Width: d.Width,
				Entries: d.Entries, OnBus: d.OnBus,
			})
		}
		r.Instructions = append(r.Instructions, ir)
	}
	return r
}

// sortedCodes copies and sorts lint disable codes so flag order does
// not split the cache.
func sortedCodes(codes []string) []string {
	if len(codes) == 0 {
		return nil
	}
	out := make([]string, len(codes))
	copy(out, codes)
	sort.Strings(out)
	return out
}
