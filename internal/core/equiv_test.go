package core_test

// Differential equivalence suite for the predecoded-plan refactor: every
// built-in workload is executed through the streamed reference pipeline
// and its full observable behavior — the exact TraceEntry stream, the
// complete Stats, the final register file, and the streamed reference
// energy — is reduced to digests and compared against goldens recorded
// from the pre-plan decode path. Bit-identical digests prove the
// table-driven plan execution retires the same instructions with the
// same cycles, events, and operand values as the original nested-switch
// decoder, and that the estimator prices them identically.
//
// Regenerate the goldens (only when an intentional behavior change is
// made) with:
//
//	go test ./internal/core -run TestPlanEquivalence -update-equiv
//
// In -short mode (the tier-1 verify smoke) a fixed subset of workloads
// runs; the full registry runs otherwise.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

var updateEquiv = flag.Bool("update-equiv", false, "rewrite the plan-equivalence goldens")

const equivGoldenPath = "testdata/equiv_goldens.json"

// equivGolden is one workload's recorded behavior digest.
type equivGolden struct {
	Name       string `json:"name"`
	Retired    uint64 `json:"retired"`
	Cycles     uint64 `json:"cycles"`
	Interlocks uint64 `json:"interlocks"`
	TraceFNV   string `json:"trace_fnv"`
	StatsFNV   string `json:"stats_fnv"`
	RegsFNV    string `json:"regs_fnv"`
	// EnergyBits is math.Float64bits of the streamed reference TotalPJ,
	// in hex: float equality must be exact, not approximate.
	EnergyBits string `json:"energy_bits"`
}

// hashingConsumer digests the trace stream while forwarding it to one
// real stream estimator per walker tier the host runs, so one run
// yields the trace digest and every tier's reference energy.
type hashingConsumer struct {
	h   hash.Hash64
	sts []*rtlpower.StreamEstimator
}

func (c *hashingConsumer) Consume(batch []iss.TraceEntry) error {
	var buf [45]byte
	for i := range batch {
		te := &batch[i]
		binary.LittleEndian.PutUint32(buf[0:], uint32(te.PC))
		buf[4] = uint8(te.Instr.Op)
		buf[5], buf[6], buf[7] = te.Instr.Rd, te.Instr.Rs, te.Instr.Rt
		binary.LittleEndian.PutUint32(buf[8:], uint32(te.Instr.Imm))
		buf[12] = te.Instr.CustomID
		binary.LittleEndian.PutUint32(buf[13:], te.Cycles)
		var flags byte
		for bit, b := range []bool{te.ICMiss, te.DCMiss, te.Uncached, te.Interlock, te.Taken} {
			if b {
				flags |= 1 << bit
			}
		}
		buf[17] = flags
		binary.LittleEndian.PutUint32(buf[18:], te.RsVal)
		binary.LittleEndian.PutUint32(buf[22:], te.RtVal)
		binary.LittleEndian.PutUint32(buf[26:], te.Result)
		binary.LittleEndian.PutUint32(buf[30:], te.Addr)
		c.h.Write(buf[:34])
	}
	for _, st := range c.sts {
		if err := st.Consume(batch); err != nil {
			return err
		}
	}
	return nil
}

// measureEquiv runs one workload through the streamed pipeline and
// digests everything observable about the run. Every supported walker
// tier prices the same trace and must report exactly what the first
// (portable) tier does, so the energy golden covers them all.
func measureEquiv(t *testing.T, w core.Workload) equivGolden {
	t.Helper()
	cfg := procgen.Default()
	proc, prog, err := w.Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	est, err := rtlpower.New(proc, rtlpower.FastTechnology())
	if err != nil {
		t.Fatalf("estimator: %v", err)
	}
	tiers := rtlpower.SupportedKernels()
	hc := &hashingConsumer{h: fnv.New64a()}
	for _, k := range tiers {
		ek, err := est.WithKernel(k)
		if err != nil {
			t.Fatalf("estimator on %s: %v", k, err)
		}
		hc.sts = append(hc.sts, ek.Stream())
	}
	res, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{}, hc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep rtlpower.Report
	for i, st := range hc.sts {
		r, err := st.Finish()
		if err != nil {
			t.Fatalf("finish on %s: %v", tiers[i], err)
		}
		if i == 0 {
			rep = r
			continue
		}
		if !reflect.DeepEqual(r, rep) {
			t.Errorf("%s report differs from %s:\n got %+v\nwant %+v", tiers[i], tiers[0], r, rep)
		}
	}

	sh := fnv.New64a()
	fmt.Fprintf(sh, "%+v", res.Stats)
	rh := fnv.New64a()
	for _, r := range res.Regs {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], r)
		rh.Write(b[:])
	}
	return equivGolden{
		Name:       w.Name,
		Retired:    res.Stats.Retired,
		Cycles:     res.Stats.Cycles,
		Interlocks: res.Stats.Interlocks,
		TraceFNV:   fmt.Sprintf("%#016x", hc.h.Sum64()),
		StatsFNV:   fmt.Sprintf("%#016x", sh.Sum64()),
		RegsFNV:    fmt.Sprintf("%#016x", rh.Sum64()),
		EnergyBits: fmt.Sprintf("%#016x", math.Float64bits(rep.TotalPJ)),
	}
}

// equivWorkloads returns the registry under test: the full corpus, or a
// fixed cross-section in -short mode (one representative of each family:
// stress kernels, custom-instruction programs, applications, validation
// apps, and the Reed-Solomon sweep).
func equivWorkloads(t *testing.T) []core.Workload {
	all := workloads.All()
	if !testing.Short() {
		return all
	}
	want := map[string]bool{
		"tp01_alu_mix": true, "tp11_interlock": true, "tp14_uncached": true,
		"tp24_cover_table": true, "tp40_mixed_custom": true,
		"gcd": true, "des": true, "crc32": true, "rs_base": true, "rs_gffold": true,
	}
	var out []core.Workload
	for _, w := range all {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("short subset resolved %d of %d workloads; registry names changed?", len(out), len(want))
	}
	return out
}

// TestPlanEquivalence holds the plan-path execution to the recorded
// behavior of the original per-step decode path, over the whole workload
// registry: traces, stats, final registers, and streamed reference
// energies — on every walker tier the host runs — must be
// bit-identical.
func TestPlanEquivalence(t *testing.T) {
	ws := equivWorkloads(t)

	if *updateEquiv {
		if testing.Short() {
			t.Fatal("-update-equiv needs the full registry; drop -short")
		}
		goldens := make(map[string]equivGolden, len(ws))
		for _, w := range ws {
			goldens[w.Name] = measureEquiv(t, w)
		}
		blob, err := json.MarshalIndent(goldens, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(equivGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d goldens to %s", len(goldens), equivGoldenPath)
		return
	}

	blob, err := os.ReadFile(equivGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-equiv): %v", err)
	}
	var goldens map[string]equivGolden
	if err := json.Unmarshal(blob, &goldens); err != nil {
		t.Fatal(err)
	}

	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := goldens[w.Name]
			if !ok {
				t.Fatalf("no golden for %q; regenerate with -update-equiv", w.Name)
			}
			got := measureEquiv(t, w)
			if got != want {
				t.Errorf("behavior diverged from recorded decode path:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
