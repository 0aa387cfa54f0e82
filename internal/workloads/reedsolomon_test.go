package workloads

import (
	"testing"

	"xtenergy/internal/core"
)

func TestGFTables(t *testing.T) {
	logT, expT := gfTables()
	// exp[log[a]] == a for all nonzero a.
	for a := uint32(1); a < 256; a++ {
		if expT[logT[a]] != a {
			t.Fatalf("exp[log[%d]] = %d", a, expT[logT[a]])
		}
	}
	// The doubled half matches.
	for i := 0; i < 255; i++ {
		if expT[i] != expT[i+255] {
			t.Fatalf("exp doubling broken at %d", i)
		}
	}
	// Table-based multiply agrees with the bitwise reference.
	for a := uint32(1); a < 256; a += 7 {
		for b := uint32(1); b < 256; b += 11 {
			got := expT[logT[a]+logT[b]]
			if want := gfMulByte(a, b); got != want {
				t.Fatalf("gf %d*%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestGFMulProperties(t *testing.T) {
	// Commutativity, identity, zero, distributivity over XOR.
	for a := uint32(0); a < 256; a += 5 {
		for b := uint32(0); b < 256; b += 7 {
			if gfMulByte(a, b) != gfMulByte(b, a) {
				t.Fatalf("not commutative at %d,%d", a, b)
			}
			c := (a + 13*b) & 0xFF
			lhs := gfMulByte(a, b^c)
			rhs := gfMulByte(a, b) ^ gfMulByte(a, c)
			if lhs != rhs {
				t.Fatalf("not distributive at %d,%d,%d", a, b, c)
			}
		}
		if gfMulByte(a, 1) != a || gfMulByte(a, 0) != 0 {
			t.Fatalf("identity/zero broken at %d", a)
		}
	}
}

func TestRSGenPoly(t *testing.T) {
	g := rsGenPoly(rsDeg)
	if len(g) != rsDeg {
		t.Fatalf("generator has %d coefficients", len(g))
	}
	for i, c := range g {
		if c == 0 || c > 255 {
			t.Fatalf("coefficient %d = %d", i, c)
		}
	}
	// The generator must vanish at each root α^i: evaluate
	// g(x) = x^deg + Σ g[j] x^j at x = α^i.
	root := uint32(1)
	for i := 0; i < rsDeg; i++ {
		// Horner over GF(256) with the implicit leading 1.
		val := uint32(1)
		for j := rsDeg - 1; j >= 0; j-- {
			val = gfMulByte(val, root) ^ g[j]
		}
		if val != 0 {
			t.Fatalf("generator does not vanish at alpha^%d: %d", i, val)
		}
		root = gfMulByte(root, 2)
	}
}

// All four Reed-Solomon configurations must compute the same parity as
// the Go reference encoder — the custom-instruction variants are
// *implementations*, not approximations.
func TestAllRSConfigurationsAgree(t *testing.T) {
	want := rsEncodeRef(rsMessage(), rsGenPoly(rsDeg))
	for _, w := range ReedSolomonConfigurations() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, sim := runApp(t, w)
			got, err := sim.ReadMem(rsOutAddr, rsDeg)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < rsDeg; j++ {
				if uint32(got[j]) != want[j] {
					t.Fatalf("parity[%d] = %#x, want %#x", j, got[j], want[j])
				}
			}
		})
	}
}

func TestRSConfigurationCyclesDecrease(t *testing.T) {
	// More custom hardware -> fewer cycles: C1 > C2 > C3 > C4.
	var prev uint64
	for i, w := range ReedSolomonConfigurations() {
		res, _ := runApp(t, w)
		if i > 0 && res.Stats.Cycles >= prev {
			t.Fatalf("%s cycles %d >= previous %d", w.Name, res.Stats.Cycles, prev)
		}
		prev = res.Stats.Cycles
	}
}

func TestRSConfigurationNames(t *testing.T) {
	want := []string{"rs_base", "rs_gfmul", "rs_gfmac", "rs_gffold"}
	cfgs := ReedSolomonConfigurations()
	for i, w := range cfgs {
		if w.Name != want[i] {
			t.Fatalf("config %d = %s, want %s", i, w.Name, want[i])
		}
	}
	if cfgs[0].Ext != nil {
		t.Fatal("rs_base must be a base-only configuration")
	}
	for _, w := range cfgs[1:] {
		if w.Ext == nil {
			t.Fatalf("%s missing its extension", w.Name)
		}
	}
}

func TestRSCustomConfigsUseCustomHardware(t *testing.T) {
	for _, w := range ReedSolomonConfigurations()[1:] {
		res, _ := runApp(t, w)
		if res.Stats.CustomCycles == 0 {
			t.Fatalf("%s executed no custom instructions", w.Name)
		}
	}
}

var _ = core.Workload{} // keep the core import for helper signatures

func TestSyndromesOfCleanCodewordAreZero(t *testing.T) {
	msg := rsMessage()
	par := rsEncodeRef(msg, rsGenPoly(rsDeg))
	cw := make([]uint32, 0, rsCwLen)
	cw = append(cw, msg...)
	for j := rsDeg - 1; j >= 0; j-- {
		cw = append(cw, par[j])
	}
	for i, s := range rsSyndromesRef(cw) {
		if s != 0 {
			t.Fatalf("syndrome %d of a clean codeword = %#x", i, s)
		}
	}
}

// All four configurations must compute the same (nonzero) syndromes of
// the corrupted codeword, matching the Go reference decoder.
func TestAllRSConfigurationsComputeSameSyndromes(t *testing.T) {
	msg := rsMessage()
	par := rsEncodeRef(msg, rsGenPoly(rsDeg))
	want := rsSyndromesRef(rsCodewordRef(msg, par))
	nonzero := false
	for _, s := range want {
		if s != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("corrupted codeword has zero syndromes; test data degenerate")
	}
	for _, w := range ReedSolomonConfigurations() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, sim := runApp(t, w)
			got, err := sim.ReadMem(rsSynAddr, rsDeg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rsDeg; i++ {
				if uint32(got[i]) != want[i] {
					t.Fatalf("syndrome[%d] = %#x, want %#x", i, got[i], want[i])
				}
			}
		})
	}
}

// After syndrome computation, every configuration corrects the single
// corrupted byte in place: the codeword buffer must equal the clean
// codeword exactly.
func TestAllRSConfigurationsCorrectTheError(t *testing.T) {
	msg := rsMessage()
	par := rsEncodeRef(msg, rsGenPoly(rsDeg))
	clean := make([]uint32, 0, rsCwLen)
	clean = append(clean, msg...)
	for j := rsDeg - 1; j >= 0; j-- {
		clean = append(clean, par[j])
	}
	for _, w := range ReedSolomonConfigurations() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, sim := runApp(t, w)
			got, err := sim.ReadMem(rsCwAddr, rsCwLen)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rsCwLen; i++ {
				if uint32(got[i]) != clean[i] {
					t.Fatalf("codeword[%d] = %#x, want %#x (correction failed)", i, got[i], clean[i])
				}
			}
		})
	}
}

// rsEncodeRef mirrors the encoder in Go: it returns the 8 parity bytes
// after one pass over the message.
func rsEncodeRef(msg []uint32, gen []uint32) []uint32 {
	par := make([]uint32, rsDeg)
	for _, d := range msg {
		fb := (d ^ par[rsDeg-1]) & 0xFF
		for j := rsDeg - 1; j > 0; j-- {
			par[j] = par[j-1] ^ gfMulByte(fb, gen[j])
		}
		par[0] = gfMulByte(fb, gen[0])
	}
	return par
}

// rsCodewordRef returns the (corrupted) codeword the decoder kernels
// operate on: message bytes followed by the parity in descending degree
// order, with one byte flipped.
func rsCodewordRef(msg, par []uint32) []uint32 {
	cw := make([]uint32, 0, len(msg)+len(par))
	cw = append(cw, msg...)
	for j := len(par) - 1; j >= 0; j-- {
		cw = append(cw, par[j])
	}
	cw[rsCorruptPos] ^= rsCorruptMask
	return cw
}

// rsSyndromesRef computes the eight syndromes S_i = r(alpha^i) of a
// codeword by Horner evaluation (alpha = 2).
func rsSyndromesRef(cw []uint32) []uint32 {
	out := make([]uint32, rsDeg)
	for i := 0; i < rsDeg; i++ {
		alpha := uint32(1) << uint(i) // 2^i, i < 8: no reduction needed
		var s uint32
		for _, c := range cw {
			s = gfMulByte(s, alpha) ^ (c & 0xFF)
		}
		out[i] = s
	}
	return out
}
