package workloads

import (
	"fmt"

	"xtenergy/internal/core"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/tie"
)

// ValidationApplications returns six additional held-out applications
// used to stress the macro-model beyond the paper's Table II set: a
// table-driven CRC32, an 8x8 integer matrix multiply, a byte histogram
// (with an immediate-operand custom instruction), an IIR biquad filter,
// a packed-byte substring search, and an 8-point integer DCT. None of
// them appears in the characterization suite, and each is functionally
// verified against a Go mirror implementation in the tests.
func ValidationApplications() []core.Workload {
	return []core.Workload{
		CRC32(), MatMul(), Histogram(), IIRFilter(), StrSearch(), DCT8(),
	}
}

const (
	crcMsgLen   = 384
	crcOutAddr  = 0x5000
	matDim      = 8
	matAAddr    = 0x1000
	matBAddr    = 0x1200
	matCAddr    = 0x5000
	histN       = 1024
	histOutAddr = 0x5000
	iirN        = 256
	iirOutAddr  = 0x6000
	strHayLen   = 600
	strOutAddr  = 0x5000
)

// crcTable builds the standard reflected CRC-32 (polynomial 0xEDB88320)
// lookup table.
func crcTable() []uint32 {
	t := make([]uint32, 256)
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}

func crcMessage() []uint32 {
	v := randWords(crcMsgLen, 1201)
	for i := range v {
		v[i] &= 0xFF
	}
	return v
}

// CRC32Extension provides crcstep: one CRC byte step through a hardware
// table.
func CRC32Extension() *tie.Extension {
	ext := &tie.Extension{
		Name:   "crc32",
		Tables: map[string][]uint32{"crc": crcTable()},
	}
	ext.Instructions = []*tie.Instruction{{
		Name: "crcstep", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
		Datapath: []tie.DatapathElem{
			dp(hwlib.Component{Name: "crc_tab", Cat: hwlib.Table, Width: 32, Entries: 256}, true),
			dp(hwlib.Component{Name: "crc_xor", Cat: hwlib.LogicRedMux, Width: 32}, false),
		},
		Semantics: func(_ *tie.State, op tie.Operands) uint32 {
			return (op.RsVal >> 8) ^ ext.TableValue("crc", (op.RsVal^op.RtVal)&0xFF)
		},
	}}
	return ext
}

// CRC32 computes a table-driven CRC-32 of a 384-byte message with the
// crcstep custom instruction.
func CRC32() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, msg
    movi a3, %d
    movi a4, -1         ; crc = 0xFFFFFFFF
c_loop:
    l8ui a5, a2, 0
    crcstep a4, a4, a5
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, c_loop
    not a4, a4
    movi a6, %d
    s32i a4, a6, 0
    ret
.data 0x1000
%s`, crcMsgLen, crcOutAddr, byteData("msg", crcMessage()))
	return core.Workload{Name: "crc32", Source: src, Ext: CRC32Extension()}
}

func matData() (a, b []uint32) {
	a = randWords(matDim*matDim, 1301)
	b = randWords(matDim*matDim, 1302)
	for i := range a {
		a[i] &= 0x7FFF
		b[i] &= 0x7FFF
	}
	return
}

// MatMul multiplies two 8x8 matrices of 15-bit values using the MAC
// extension's multiply-accumulate.
func MatMul() core.Workload {
	a, b := matData()
	src := fmt.Sprintf(`start:
    movi a2, 0          ; i
m_i:
    movi a3, 0          ; j
m_j:
    clracc a0, a0, a0
    movi a4, 0          ; k
m_k:
    ; a[i][k]
    slli a5, a2, 5      ; i*8*4
    slli a6, a4, 2
    add a5, a5, a6
    movi a7, %d
    add a5, a5, a7
    l32i a8, a5, 0
    ; b[k][j]
    slli a5, a4, 5
    slli a6, a3, 2
    add a5, a5, a6
    movi a7, %d
    add a5, a5, a7
    l32i a9, a5, 0
    mac16 a0, a8, a9
    addi a4, a4, 1
    blti a4, %d, m_k
    ; c[i][j] = acc
    rdacc a10, a0, a0
    slli a5, a2, 5
    slli a6, a3, 2
    add a5, a5, a6
    movi a7, %d
    add a5, a5, a7
    s32i a10, a5, 0
    addi a3, a3, 1
    blti a3, %d, m_j
    addi a2, a2, 1
    blti a2, %d, m_i
    ret
.data %d
%s.data %d
%s`, matAAddr, matBAddr, matDim, matCAddr, matDim, matDim,
		matAAddr, wordData("mata", a), matBAddr, wordData("matb", b))
	return core.Workload{Name: "matmul", Source: src, Ext: MACExtension()}
}

func histData() []uint32 {
	v := randWords(histN, 1401)
	for i := range v {
		v[i] &= 0xFF
	}
	return v
}

// HistExtension provides binsel, an immediate-operand custom
// instruction extracting a 4-bit histogram bin from a sample at a
// compile-time-selected shift.
func HistExtension() *tie.Extension {
	return &tie.Extension{
		Name: "hist",
		Instructions: []*tie.Instruction{{
			Name: "binsel", Latency: 1, ReadsGeneral: true, WritesGeneral: true, ImmOperand: true,
			Datapath: []tie.DatapathElem{
				dp(hwlib.Component{Name: "hs_shift", Cat: hwlib.Shifter, Width: 32}, true),
				dp(hwlib.Component{Name: "hs_mask", Cat: hwlib.LogicRedMux, Width: 8}, false),
			},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 {
				return (op.RsVal >> uint(op.Imm&31)) & 0xF
			},
		}},
	}
}

// Histogram builds a 16-bin histogram of the high nibbles of 1024 byte
// samples.
func Histogram() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, samples
    movi a3, %d
h_loop:
    l8ui a4, a2, 0
    binsel a5, a4, 4    ; bin = (sample >> 4) & 0xF
    slli a5, a5, 2
    movi a6, %d
    add a5, a5, a6
    l32i a7, a5, 0
    addi a7, a7, 1
    s32i a7, a5, 0
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, h_loop
    ret
.data 0x1000
%s`, histN, histOutAddr, byteData("samples", histData()))
	return core.Workload{Name: "histogram", Source: src, Ext: HistExtension()}
}

func iirData() []uint32 {
	v := randWords(iirN, 1501)
	for i := range v {
		v[i] = uint32(int32(v[i]%2000) - 1000)
	}
	return v
}

// IIRFilter runs a first-order IIR section over 256 samples using the
// sequential multiplier extension.
func IIRFilter() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, xin
    movi a3, %d
    movi a4, %d         ; out ptr
    movi a10, 0         ; x[n-1]
    movi a11, 0         ; y[n-1]
    movi a20, 96        ; b0
    movi a21, 64        ; b1
    movi a22, 32        ; a1
f_loop:
    l32i a5, a2, 0      ; x[n]
    smul a6, a5, a20    ; b0*x
    smul a7, a10, a21   ; b1*x1
    add a6, a6, a7
    smul a7, a11, a22   ; a1*y1
    sub a6, a6, a7
    srai a6, a6, 8
    s32i a6, a4, 0
    mov a10, a5
    mov a11, a6
    addi a2, a2, 4
    addi a4, a4, 4
    addi a3, a3, -1
    bnez a3, f_loop
    ret
.data 0x1000
%s`, iirN, iirOutAddr, wordData("xin", iirData()))
	return core.Workload{Name: "iir", Source: src, Ext: SeqMultExtension()}
}

func strHaystack() []uint32 {
	g := newLCG(1601)
	v := make([]uint32, strHayLen)
	for i := range v {
		v[i] = 'a' + g.nextN(4) // small alphabet -> many near-matches
	}
	// Plant the needle a few times.
	needle := strNeedle()
	for _, pos := range []int{37, 256, 511} {
		copy(v[pos:], needle)
	}
	return v
}

func strNeedle() []uint32 { return []uint32{'a', 'b', 'b', 'a', 'c'} }

// StrExtension provides bcmp4, comparing four packed bytes and
// returning a mismatch mask.
func StrExtension() *tie.Extension {
	return &tie.Extension{
		Name: "strsearch",
		Instructions: []*tie.Instruction{{
			Name: "bcmp4", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{
				dp(hwlib.Component{Name: "sc_cmp", Cat: hwlib.AddSubCmp, Width: 32}, true),
				dp(hwlib.Component{Name: "sc_red", Cat: hwlib.LogicRedMux, Width: 32}, false),
			},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 {
				var mask uint32
				for i := 0; i < 4; i++ {
					sh := uint(8 * i)
					if (op.RsVal>>sh)&0xFF != (op.RtVal>>sh)&0xFF {
						mask |= 1 << uint(i)
					}
				}
				return mask
			},
		}},
	}
}

// StrSearch counts needle occurrences in a 600-byte haystack; the inner
// comparison checks four bytes at a time with bcmp4 and the fifth with a
// base compare.
func StrSearch() core.Workload {
	needle := strNeedle()
	packed := needle[0] | needle[1]<<8 | needle[2]<<16 | needle[3]<<24
	src := fmt.Sprintf(`start:
    movi a2, hay
    movi a3, %d         ; positions to test
    movi a4, %d         ; packed first 4 needle bytes
    movi a5, %d         ; 5th needle byte
    movi a12, 0         ; count
s_loop:
    l8ui a6, a2, 0
    l8ui a7, a2, 1
    l8ui a8, a2, 2
    l8ui a9, a2, 3
    slli a7, a7, 8
    slli a8, a8, 16
    slli a9, a9, 24
    or a6, a6, a7
    or a6, a6, a8
    or a6, a6, a9
    bcmp4 a10, a6, a4
    bnez a10, s_next
    l8ui a11, a2, 4
    bne a11, a5, s_next
    addi a12, a12, 1
s_next:
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, s_loop
    movi a6, %d
    s32i a12, a6, 0
    ret
.data 0x1000
%s`, strHayLen-len(needle)+1, int32(packed), needle[4], strOutAddr,
		byteData("hay", strHaystack()))
	return core.Workload{Name: "strsearch", Source: src, Ext: StrExtension()}
}

const (
	dctBlocks  = 16
	dctOutAddr = 0x6800
	dctInAddr  = 0x1000
	dctCoAddr  = 0x3000
)

// dctCoefs returns the 8x8 DCT-II coefficient matrix scaled by 256
// (row k, column n: cos((2n+1)k*pi/16)).
func dctCoefs() []uint32 {
	// Precomputed round(cos((2n+1)k*pi/16)*256) values; row 0 is the DC
	// row (all 256).
	rows := [8][8]int32{
		{256, 256, 256, 256, 256, 256, 256, 256},
		{251, 213, 142, 50, -50, -142, -213, -251},
		{237, 98, -98, -237, -237, -98, 98, 237},
		{213, -50, -251, -142, 142, 251, 50, -213},
		{181, -181, -181, 181, 181, -181, -181, 181},
		{142, -251, 50, 213, -213, -50, 251, -142},
		{98, -237, 237, -98, -98, 237, -237, 98},
		{50, -142, 213, -251, 251, -213, 142, -50},
	}
	out := make([]uint32, 64)
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			out[k*8+n] = uint32(rows[k][n])
		}
	}
	return out
}

func dctSamples() []uint32 {
	v := randWords(dctBlocks*8, 1701)
	for i := range v {
		v[i] = uint32(int32(v[i]%255) - 127)
	}
	return v
}

// DCT8 computes 16 blocks of an 8-point integer DCT-II on the MAC
// extension — a classic media kernel for the configurable-processor
// domain the paper targets.
func DCT8() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, %d         ; sample block pointer
    movi a9, %d         ; output pointer
    movi a12, %d        ; blocks
t_block:
    movi a3, %d         ; coefficient row pointer
    movi a11, 8         ; rows
t_row:
    clracc a0, a0, a0
    mov a4, a2
    mov a5, a3
    movi a6, 8
t_mac:
    l32i a7, a4, 0
    l32i a8, a5, 0
    mac16 a0, a7, a8
    addi a4, a4, 4
    addi a5, a5, 4
    addi a6, a6, -1
    bnez a6, t_mac
    rdacc a10, a0, a0
    srai a10, a10, 8
    s32i a10, a9, 0
    addi a9, a9, 4
    addi a3, a3, 32     ; next coefficient row
    addi a11, a11, -1
    bnez a11, t_row
    addi a2, a2, 32     ; next sample block
    addi a12, a12, -1
    bnez a12, t_block
    ret
.data %d
%s.data %d
%s`, dctInAddr, dctOutAddr, dctBlocks, dctCoAddr, dctInAddr,
		wordData("samples", dctSamples()), dctCoAddr, wordData("coefs", dctCoefs()))
	return core.Workload{Name: "dct8", Source: src, Ext: MACExtension()}
}
