package workloads

import (
	"testing"
)

func TestCRC32Correct(t *testing.T) {
	_, sim := runApp(t, CRC32())
	got, err := sim.ReadWord(crcOutAddr)
	if err != nil {
		t.Fatal(err)
	}
	if want := crcRef(crcMessage()); got != want {
		t.Fatalf("crc = %#x, want %#x", got, want)
	}
}

func TestCRCTableMatchesStdlibPolynomial(t *testing.T) {
	// Spot-check a few entries of the reflected CRC-32 table against
	// hand-computed values.
	tab := crcTable()
	if tab[0] != 0 {
		t.Fatalf("table[0] = %#x", tab[0])
	}
	if tab[1] != 0x77073096 {
		t.Fatalf("table[1] = %#x, want 0x77073096", tab[1])
	}
	if tab[255] != 0x2D02EF8D {
		t.Fatalf("table[255] = %#x, want 0x2D02EF8D", tab[255])
	}
}

func TestMatMulCorrect(t *testing.T) {
	_, sim := runApp(t, MatMul())
	a, b := matData()
	for i := 0; i < matDim; i++ {
		for j := 0; j < matDim; j++ {
			var want int64
			for k := 0; k < matDim; k++ {
				// mac16 multiplies the low 16 bits as signed values.
				want += int64(int16(a[i*matDim+k])) * int64(int16(b[k*matDim+j]))
			}
			got, err := sim.ReadWord(uint32(matCAddr + 4*(i*matDim+j)))
			if err != nil {
				t.Fatal(err)
			}
			if got != uint32(want) {
				t.Fatalf("c[%d][%d] = %#x, want %#x", i, j, got, uint32(want))
			}
		}
	}
}

func TestHistogramCorrect(t *testing.T) {
	_, sim := runApp(t, Histogram())
	var want [16]uint32
	for _, s := range histData() {
		want[(s>>4)&0xF]++
	}
	for bin := 0; bin < 16; bin++ {
		got, err := sim.ReadWord(uint32(histOutAddr + 4*bin))
		if err != nil {
			t.Fatal(err)
		}
		if got != want[bin] {
			t.Fatalf("bin %d = %d, want %d", bin, got, want[bin])
		}
	}
}

func TestIIRCorrect(t *testing.T) {
	_, sim := runApp(t, IIRFilter())
	want := iirRef(iirData())
	for i := range want {
		got, err := sim.ReadWord(uint32(iirOutAddr + 4*i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("y[%d] = %#x, want %#x", i, got, want[i])
		}
	}
}

func TestStrSearchCorrect(t *testing.T) {
	_, sim := runApp(t, StrSearch())
	got, err := sim.ReadWord(strOutAddr)
	if err != nil {
		t.Fatal(err)
	}
	want := strSearchRef()
	if want < 3 {
		t.Fatalf("test data degenerate: only %d planted matches", want)
	}
	if got != want {
		t.Fatalf("matches = %d, want %d", got, want)
	}
}

func TestValidationAppsDisjointAndCustom(t *testing.T) {
	suite := map[string]bool{}
	for _, w := range CharacterizationSuite() {
		suite[w.Name] = true
	}
	for _, w := range Applications() {
		suite[w.Name] = true
	}
	for _, w := range ValidationApplications() {
		if suite[w.Name] {
			t.Fatalf("validation app %s overlaps another suite", w.Name)
		}
		if w.Ext == nil {
			t.Fatalf("validation app %s has no extension", w.Name)
		}
		res, _ := runApp(t, w)
		if res.Stats.CustomCycles == 0 {
			t.Fatalf("validation app %s executes no custom instructions", w.Name)
		}
	}
}

func TestDCT8Correct(t *testing.T) {
	_, sim := runApp(t, DCT8())
	want := dctRef()
	for i := range want {
		got, err := sim.ReadWord(uint32(dctOutAddr + 4*i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("dct[%d] = %#x, want %#x", i, got, want[i])
		}
	}
}

// crcRef mirrors the CRC kernel.
func crcRef(msg []uint32) uint32 {
	t := crcTable()
	crc := ^uint32(0)
	for _, b := range msg {
		crc = (crc >> 8) ^ t[(crc^b)&0xFF]
	}
	return ^crc
}

// iirRef mirrors the biquad kernel: y[n] = (b0*x[n] + b1*x[n-1] -
// a1*y[n-1]) >> 8, in 32-bit wraparound arithmetic.
func iirRef(x []uint32) []uint32 {
	const b0, b1, a1 = 96, 64, 32
	out := make([]uint32, len(x))
	var x1, y1 uint32
	for i, xn := range x {
		y := (b0*xn + b1*x1 - a1*y1)
		y = uint32(int32(y) >> 8)
		out[i] = y
		x1, y1 = xn, y
	}
	return out
}

// strSearchRef counts occurrences of the needle.
func strSearchRef() uint32 {
	hay, needle := strHaystack(), strNeedle()
	var count uint32
	for i := 0; i+len(needle) <= len(hay); i++ {
		ok := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// dctRef mirrors the kernel: per block, y[k] = (sum_n x[n]*c[k][n]) >> 8
// in the same 16-bit-operand arithmetic as mac16.
func dctRef() []uint32 {
	x := dctSamples()
	c := dctCoefs()
	out := make([]uint32, dctBlocks*8)
	for b := 0; b < dctBlocks; b++ {
		for k := 0; k < 8; k++ {
			var acc int64
			for n := 0; n < 8; n++ {
				acc += int64(int16(x[b*8+n])) * int64(int16(c[k*8+n]))
			}
			out[b*8+k] = uint32(int32(acc) >> 8)
		}
	}
	return out
}
