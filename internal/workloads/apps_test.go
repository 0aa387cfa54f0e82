package workloads

import (
	"math/bits"
	"sort"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// runApp builds and runs a workload, returning the simulator for memory
// inspection.
func runApp(t *testing.T, w core.Workload) (*iss.Result, *iss.Simulator) {
	t.Helper()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	sim := iss.New(proc)
	res, err := sim.Run(prog, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, sim
}

func readWords(t *testing.T, sim *iss.Simulator, addr uint32, n int) []uint32 {
	t.Helper()
	out := make([]uint32, n)
	for i := range out {
		w, err := sim.ReadWord(addr + uint32(4*i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w
	}
	return out
}

func TestInsSortSortsCorrectly(t *testing.T) {
	_, sim := runApp(t, InsSort())
	got := readWords(t, sim, insSortAddr, insSortN)
	want := insSortData()
	sort.Slice(want, func(i, j int) bool { return int32(want[i]) < int32(want[j]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBubsortSortsCorrectly(t *testing.T) {
	_, sim := runApp(t, Bubsort())
	got := readWords(t, sim, bubsortAddr, bubsortN)
	want := bubsortData()
	sort.Slice(want, func(i, j int) bool { return int32(want[i]) < int32(want[j]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// gcdOdd mirrors the binary-GCD-with-norm kernel: gcd of the odd parts.
func gcdOdd(u, v uint32) uint32 {
	norm := func(x uint32) uint32 {
		if x == 0 {
			return 0
		}
		return x >> uint(bits.TrailingZeros32(x))
	}
	u, v = norm(u), norm(v)
	for u != v {
		if u > v {
			u = norm(u - v)
		} else {
			v = norm(v - u)
		}
	}
	return u
}

func TestGcdComputesCorrectly(t *testing.T) {
	_, sim := runApp(t, Gcd())
	got, err := sim.ReadWord(gcdOutAddr)
	if err != nil {
		t.Fatal(err)
	}
	data := gcdData()
	var want uint32
	for i := 0; i < gcdPairs; i++ {
		want ^= gcdOdd(data[2*i], data[2*i+1])
	}
	if got != want {
		t.Fatalf("gcd checksum = %#x, want %#x", got, want)
	}
}

func TestAlphablendBlendsCorrectly(t *testing.T) {
	_, sim := runApp(t, Alphablend())
	imga, imgb := blendData()
	got := readWords(t, sim, blendOutAddr, blendN)
	const alpha = 180
	for i := range got {
		var want uint32
		for ch := 0; ch < 4; ch++ {
			sh := uint(8 * ch)
			a := (imga[i] >> sh) & 0xFF
			b := (imgb[i] >> sh) & 0xFF
			c := (a*alpha + b*(255-alpha)) >> 8
			want |= (c & 0xFF) << sh
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestAdd4AddsCorrectly(t *testing.T) {
	_, sim := runApp(t, Add4())
	va, vb := add4Data()
	got := readWords(t, sim, add4OutAddr, add4N)
	for i := range got {
		var want uint32
		for ch := 0; ch < 4; ch++ {
			sh := uint(8 * ch)
			s := ((va[i] >> sh) & 0xFF) + ((vb[i] >> sh) & 0xFF)
			if s > 255 {
				s = 255
			}
			want |= s << sh
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestDESRoundsCorrectly(t *testing.T) {
	_, sim := runApp(t, DES())
	blocks, keys := desData()
	sbox := desSBoxTable()
	f := func(r, k, l uint32) uint32 {
		x := r ^ k
		perm := bits.RotateLeft32(x, int(k&31)) ^ (x >> 16)
		var out uint32
		for i := 0; i < 4; i++ {
			g := (perm >> uint(6*i)) & 0x3F
			out ^= sbox[g] >> uint(8*i)
		}
		return out ^ l
	}
	got := readWords(t, sim, 0x1000, desBlocks*2)
	for b := 0; b < desBlocks; b++ {
		l, r := blocks[2*b], blocks[2*b+1]
		for round := 0; round < desRounds; round++ {
			l, r = r, f(r, keys[round], l)
		}
		if got[2*b] != l || got[2*b+1] != r {
			t.Fatalf("block %d = %#x,%#x want %#x,%#x", b, got[2*b], got[2*b+1], l, r)
		}
	}
}

func TestAccumulateSumsCorrectly(t *testing.T) {
	_, sim := runApp(t, Accumulate())
	var want uint64
	for _, v := range accData() {
		want += uint64(v)
	}
	lo, err := sim.ReadWord(accOutAddr)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sim.ReadWord(accOutAddr + 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(lo) | uint64(hi)<<32; got != want {
		t.Fatalf("accumulate = %d, want %d", got, want)
	}
}

func TestDrawlineRasterizesCorrectly(t *testing.T) {
	_, sim := runApp(t, Drawline())
	// Mirror Bresenham.
	fb := make([]byte, fbStride*64)
	segs := drawSegments()
	for i := 0; i+3 < len(segs); i += 4 {
		x0, y0 := int32(segs[i]), int32(segs[i+1])
		x1, y1 := int32(segs[i+2]), int32(segs[i+3])
		dx := x1 - x0
		if dx < 0 {
			dx = -dx
		}
		dy := y1 - y0
		if dy < 0 {
			dy = -dy
		}
		dy = -dy
		sx := int32(-1)
		if x0 < x1 {
			sx = 1
		}
		sy := int32(-1)
		if y0 < y1 {
			sy = 1
		}
		err := dx + dy
		for {
			fb[y0*fbStride+x0] = 1
			if x0 == x1 && y0 == y1 {
				break
			}
			e2 := 2 * err
			if e2 >= dy {
				err += dy
				x0 += sx
			}
			if e2 <= dx {
				err += dx
				y0 += sy
			}
		}
	}
	got, err := sim.ReadMem(fbAddr, len(fb))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fb {
		if got[i] != fb[i] {
			t.Fatalf("framebuffer byte %d = %d, want %d", i, got[i], fb[i])
		}
	}
}

func TestMultiAccumulateComputesDotProducts(t *testing.T) {
	_, sim := runApp(t, MultiAccumulate())
	va, vb := macVectors()
	chunk := macN / 4
	for c := 0; c < 4; c++ {
		var want int64
		for i := c * chunk; i < (c+1)*chunk; i++ {
			want += int64(int16(va[i])) * int64(int16(vb[i]))
		}
		got, err := sim.ReadWord(macOutAddr + uint32(4*c))
		if err != nil {
			t.Fatal(err)
		}
		if got != uint32(want) {
			t.Fatalf("chunk %d = %#x, want %#x", c, got, uint32(want))
		}
	}
}

func TestSeqMultComputesProducts(t *testing.T) {
	_, sim := runApp(t, SeqMult())
	va, vb := seqMultData()
	var wantLo, wantHi uint32
	for i := range va {
		p := uint64(va[i]) * uint64(vb[i])
		wantLo ^= uint32(p)
		wantHi ^= uint32(p >> 32)
	}
	lo, _ := sim.ReadWord(seqOutAddr)
	hi, _ := sim.ReadWord(seqOutAddr + 4)
	if lo != wantLo || hi != wantHi {
		t.Fatalf("seq_mult checksum = %#x,%#x want %#x,%#x", lo, hi, wantLo, wantHi)
	}
}

func TestSeqMultUsesMultiCycleCustom(t *testing.T) {
	res, _ := runApp(t, SeqMult())
	// smul latency 4 x 300 + smulh 1 x 300.
	if res.Stats.CustomCycles != 4*seqMultN+seqMultN {
		t.Fatalf("custom cycles = %d, want %d", res.Stats.CustomCycles, 5*seqMultN)
	}
}

func TestApplicationsListMatchesTable2(t *testing.T) {
	apps := Applications()
	wantOrder := []string{
		"ins_sort", "gcd", "alphablend", "add4", "bubsort",
		"des", "accumulate", "drawline", "multi_accumulate", "seq_mult",
	}
	if len(apps) != len(wantOrder) {
		t.Fatalf("got %d applications, want %d", len(apps), len(wantOrder))
	}
	for i, w := range apps {
		if w.Name != wantOrder[i] {
			t.Fatalf("app %d = %s, want %s (Table II order)", i, w.Name, wantOrder[i])
		}
	}
}

func TestEveryApplicationUsesCustomInstructions(t *testing.T) {
	for _, w := range Applications() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Ext == nil {
				t.Skip("base-only application")
			}
			res, _ := runApp(t, w)
			if res.Stats.CustomCycles == 0 {
				t.Fatalf("%s declares an extension but executes no custom instructions", w.Name)
			}
		})
	}
}
