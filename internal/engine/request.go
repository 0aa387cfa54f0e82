package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"sort"
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

// envelope is the outermost canonical request record. Binary is the
// SHA-256 of the running executable: two different builds of the
// pipeline never share artifacts, which is what makes it sound to
// identify TIE semantics closures by instruction name and structure —
// within one binary, the spec determines the code.
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
	hex  string
	err  error
}

// binaryFingerprint hashes the running executable, once per process.
// Failure to resolve it disables caching (the engine bypasses the
// store) rather than risking stale artifacts across code versions.
func binaryFingerprint() (string, error) {
	binFP.once.Do(func() {
		path, err := os.Executable()
		if err != nil {
			binFP.err = err
			return
		}
		f, err := os.Open(path)
		if err != nil {
			binFP.err = err
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			binFP.err = err
			return
		}
		binFP.hex = hex.EncodeToString(h.Sum(nil))
	})
	return binFP.hex, binFP.err
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
