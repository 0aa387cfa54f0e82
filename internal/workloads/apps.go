package workloads

import (
	"fmt"

	"xtenergy/internal/core"
)

// Applications returns the ten application benchmarks of the paper's
// Table II, in table order: Ins sort, Gcd, Alphablend, Add4, Bubsort,
// DES, Accumulate, Drawline, Multi accumulate, Seq mult. Each
// incorporates its own custom instructions, and none of them appears in
// the characterization suite.
func Applications() []core.Workload {
	return []core.Workload{
		InsSort(), Gcd(), Alphablend(), Add4(), Bubsort(),
		DES(), Accumulate(), Drawline(), MultiAccumulate(), SeqMult(),
	}
}

// Sizes and layout shared with the verification tests.
const (
	insSortN     = 96
	insSortAddr  = 0x1000
	gcdPairs     = 80
	gcdOutAddr   = 0x3000
	blendN       = 320
	blendOutAddr = 0x8000
	add4N        = 400
	add4OutAddr  = 0x8000
	bubsortN     = 64
	bubsortAddr  = 0x1000
	desBlocks    = 8
	desRounds    = 16
	accN         = 600
	accOutAddr   = 0x4000
	macN         = 400
	macOutAddr   = 0x4000
	seqMultN     = 300
	seqOutAddr   = 0x4000
	fbAddr       = 0x8000 // drawline framebuffer (64x64 bytes)
	fbStride     = 64
)

func insSortData() []uint32 {
	v := randWords(insSortN, 41)
	for i := range v {
		v[i] %= 100000 // keep values positive and comparable as signed
	}
	return v
}

// InsSort is insertion sort over 96 words, with the comparison done by
// the custom "sgt" comparator instruction.
func InsSort() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, %d
    movi a3, %d
    movi a4, 1
i_outer:
    bge a4, a3, i_done
    slli a5, a4, 2
    add a5, a5, a2
    l32i a6, a5, 0      ; key
    mov a7, a4          ; j
i_inner:
    beqz a7, i_insert
    slli a8, a7, 2
    add a8, a8, a2
    l32i a9, a8, -4     ; arr[j-1]
    sgt a10, a9, a6     ; custom comparator
    beqz a10, i_insert
    s32i a9, a8, 0
    addi a7, a7, -1
    j i_inner
i_insert:
    slli a8, a7, 2
    add a8, a8, a2
    s32i a6, a8, 0
    addi a4, a4, 1
    j i_outer
i_done:
    ret
.data %d
%s`, insSortAddr, insSortN, insSortAddr, wordData("arr", insSortData()))
	return core.Workload{Name: "ins_sort", Source: src, Ext: MinMaxExtension()}
}

func gcdData() []uint32 {
	v := randWords(gcdPairs*2, 43)
	for i := range v {
		v[i] = v[i]%100000 + 1
	}
	return v
}

// Gcd computes binary GCDs over 80 pairs using the custom "norm"
// normalization instruction, xor-accumulating the results.
func Gcd() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, pairs
    movi a3, %d
    movi a12, 0
g_loop:
    l32i a4, a2, 0
    l32i a5, a2, 4
    norm a4, a4, a4
    norm a5, a5, a5
g_inner:
    beq a4, a5, g_one
    bltu a4, a5, g_vbig
    sub a4, a4, a5
    norm a4, a4, a4
    j g_inner
g_vbig:
    sub a5, a5, a4
    norm a5, a5, a5
    j g_inner
g_one:
    xor a12, a12, a4
    addi a2, a2, 8
    addi a3, a3, -1
    bnez a3, g_loop
    movi a6, %d
    s32i a12, a6, 0
    ret
.data 0x1000
%s`, gcdPairs, gcdOutAddr, wordData("pairs", gcdData()))
	return core.Workload{Name: "gcd", Source: src, Ext: NormExtension()}
}

func blendData() (a, b []uint32) {
	return randWords(blendN, 51), randWords(blendN, 52)
}

// Alphablend blends two packed-pixel images with the custom "blend8"
// instruction (alpha factor held in a TIE register).
func Alphablend() core.Workload {
	imga, imgb := blendData()
	src := fmt.Sprintf(`start:
    movi a4, 180
    setalpha a4, a4, a4
    movi a2, imga
    movi a3, imgb
    movi a5, %d
    movi a6, %d
b_loop:
    l32i a7, a2, 0
    l32i a8, a3, 0
    blend8 a9, a7, a8
    s32i a9, a5, 0
    addi a2, a2, 4
    addi a3, a3, 4
    addi a5, a5, 4
    addi a6, a6, -1
    bnez a6, b_loop
    ret
.data 0x1000
%s%s`, blendOutAddr, blendN, wordData("imga", imga), wordData("imgb", imgb))
	return core.Workload{Name: "alphablend", Source: src, Ext: BlendExtension()}
}

func add4Data() (a, b []uint32) {
	return randWords(add4N, 61), randWords(add4N, 62)
}

// Add4 performs packed saturating byte addition of two arrays with the
// custom TIE adder instruction "add4".
func Add4() core.Workload {
	va, vb := add4Data()
	src := fmt.Sprintf(`start:
    movi a2, veca
    movi a3, vecb
    movi a5, %d
    movi a6, %d
q_loop:
    l32i a7, a2, 0
    l32i a8, a3, 0
    add4 a9, a7, a8
    s32i a9, a5, 0
    addi a2, a2, 4
    addi a3, a3, 4
    addi a5, a5, 4
    addi a6, a6, -1
    bnez a6, q_loop
    ret
.data 0x1000
%s%s`, add4OutAddr, add4N, wordData("veca", va), wordData("vecb", vb))
	return core.Workload{Name: "add4", Source: src, Ext: Add4Extension()}
}

func bubsortData() []uint32 {
	v := randWords(bubsortN, 71)
	for i := range v {
		v[i] %= 1000000
	}
	return v
}

// Bubsort is bubble sort over 64 words built on the custom
// compare-select pair pmin/pmax.
func Bubsort() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, %d
    movi a3, %d
    addi a4, a3, -1
s_outer:
    beqz a4, s_done
    movi a5, 0
    mov a6, a2
s_inner:
    l32i a7, a6, 0
    l32i a8, a6, 4
    pmin a9, a7, a8
    pmax a10, a7, a8
    s32i a9, a6, 0
    s32i a10, a6, 4
    addi a6, a6, 4
    addi a5, a5, 1
    blt a5, a4, s_inner
    addi a4, a4, -1
    j s_outer
s_done:
    ret
.data %d
%s`, bubsortAddr, bubsortN, bubsortAddr, wordData("arr", bubsortData()))
	return core.Workload{Name: "bubsort", Source: src, Ext: MinMaxExtension()}
}

func desData() (blocks, keys []uint32) {
	return randWords(desBlocks*2, 81), randWords(desRounds, 82)
}

// DES runs a 16-round Feistel cipher over 8 blocks with the custom
// hardware S-box ("dsbox") and round permutation ("dperm").
func DES() core.Workload {
	blocks, keys := desData()
	src := fmt.Sprintf(`start:
    movi a2, blocks
    movi a3, %d
d_blk:
    l32i a4, a2, 0      ; L
    l32i a5, a2, 4      ; R
    movi a6, keys
    movi a7, %d
d_round:
    l32i a8, a6, 0
    xor a9, a5, a8
    dperm a10, a9, a8
    dsbox a11, a10, a4  ; f(R,K) ^ L
    mov a4, a5
    mov a5, a11
    addi a6, a6, 4
    addi a7, a7, -1
    bnez a7, d_round
    s32i a4, a2, 0
    s32i a5, a2, 4
    addi a2, a2, 8
    addi a3, a3, -1
    bnez a3, d_blk
    ret
.data 0x1000
%s%s`, desBlocks, desRounds, wordData("blocks", blocks), wordData("keys", keys))
	return core.Workload{Name: "des", Source: src, Ext: DESExtension()}
}

func accData() []uint32 {
	v := randWords(accN, 91)
	for i := range v {
		v[i] %= 1 << 20
	}
	return v
}

// Accumulate sums a 600-element array into the TIE accumulator with the
// custom "acc" instruction.
func Accumulate() core.Workload {
	src := fmt.Sprintf(`start:
    clracc a1, a1, a1
    movi a2, arr
    movi a3, %d
a_loop:
    l32i a4, a2, 0
    acc a4, a4, a4
    addi a2, a2, 4
    addi a3, a3, -1
    bnez a3, a_loop
    rdacc a5, a0, a0    ; low word  (rt field = 0)
    rdacc a6, a0, a1    ; high word (rt field != 0)
    movi a7, %d
    s32i a5, a7, 0
    s32i a6, a7, 4
    ret
.data 0x1000
%s`, accN, accOutAddr, wordData("arr", accData()))
	return core.Workload{Name: "accumulate", Source: src, Ext: MACExtension()}
}

// drawSegments returns the endpoints of the line segments drawn by the
// Drawline benchmark, packed as x0,y0,x1,y1 quadruples within a 64x64
// framebuffer.
func drawSegments() []uint32 {
	g := newLCG(95)
	segs := make([]uint32, 0, 4*12)
	for i := 0; i < 12; i++ {
		segs = append(segs, g.nextN(64), g.nextN(64), g.nextN(64), g.nextN(64))
	}
	return segs
}

// Drawline rasterizes 12 Bresenham line segments into a byte
// framebuffer, using the custom "absd" absolute-difference instruction.
func Drawline() core.Workload {
	src := fmt.Sprintf(`start:
    movi a2, segs
    movi a3, 12
w_seg:
    l32i a4, a2, 0      ; x0
    l32i a5, a2, 4      ; y0
    l32i a6, a2, 8      ; x1
    l32i a7, a2, 12     ; y1
    absd a8, a6, a4     ; dx = |x1-x0|
    absd a9, a7, a5
    neg a9, a9          ; dy = -|y1-y0|
    movi a10, 1
    blt a4, a6, w_sx
    movi a10, -1
w_sx:
    movi a11, 1
    blt a5, a7, w_sy
    movi a11, -1
w_sy:
    add a12, a8, a9     ; err = dx + dy
w_plot:
    slli a13, a5, 6     ; y*64
    add a13, a13, a4
    movi a14, %d
    add a13, a13, a14
    movi a14, 1
    s8i a14, a13, 0
    bne a4, a6, w_go
    beq a5, a7, w_next
w_go:
    slli a13, a12, 1    ; e2 = 2*err
    blt a13, a9, w_skipx
    add a12, a12, a9
    add a4, a4, a10
w_skipx:
    blt a8, a13, w_skipy
    add a12, a12, a8
    add a5, a5, a11
w_skipy:
    j w_plot
w_next:
    addi a2, a2, 16
    addi a3, a3, -1
    bnez a3, w_seg
    ret
.data 0x1000
%s`, fbAddr, wordData("segs", drawSegments()))
	return core.Workload{Name: "drawline", Source: src, Ext: NormExtension()}
}

func macVectors() (a, b []uint32) {
	va := randWords(macN, 96)
	vb := randWords(macN, 97)
	for i := range va {
		va[i] &= 0xFFFF
		vb[i] &= 0xFFFF
	}
	return va, vb
}

// MultiAccumulate computes four chunked dot products with the custom
// 16-bit multiply-accumulate instruction "mac16".
func MultiAccumulate() core.Workload {
	va, vb := macVectors()
	src := fmt.Sprintf(`start:
    movi a9, %d         ; result cursor
    movi a2, veca
    movi a3, vecb
    movi a11, 4         ; chunks
m_chunk:
    clracc a1, a1, a1
    movi a4, %d         ; chunk length
m_loop:
    l32i a5, a2, 0
    l32i a6, a3, 0
    mac16 a5, a5, a6
    addi a2, a2, 4
    addi a3, a3, 4
    addi a4, a4, -1
    bnez a4, m_loop
    rdacc a7, a0, a0
    s32i a7, a9, 0
    addi a9, a9, 4
    addi a11, a11, -1
    bnez a11, m_chunk
    ret
.data 0x1000
%s%s`, macOutAddr, macN/4, wordData("veca", va), wordData("vecb", vb))
	return core.Workload{Name: "multi_accumulate", Source: src, Ext: MACExtension()}
}

func seqMultData() (a, b []uint32) {
	return randWords(seqMultN, 98), randWords(seqMultN, 99)
}

// SeqMult multiplies two arrays elementwise on the 4-cycle sequential
// TIE multiplier ("smul"/"smulh"), xor-accumulating a 64-bit checksum.
func SeqMult() core.Workload {
	va, vb := seqMultData()
	src := fmt.Sprintf(`start:
    movi a2, veca
    movi a3, vecb
    movi a4, %d
    movi a10, 0
    movi a11, 0
x_loop:
    l32i a5, a2, 0
    l32i a6, a3, 0
    smul a7, a5, a6     ; 4-cycle sequential multiply (low)
    smulh a8, a0, a0    ; high word from TIE register
    xor a10, a10, a7
    xor a11, a11, a8
    addi a2, a2, 4
    addi a3, a3, 4
    addi a4, a4, -1
    bnez a4, x_loop
    movi a9, %d
    s32i a10, a9, 0
    s32i a11, a9, 4
    ret
.data 0x1000
%s%s`, seqMultN, seqOutAddr, wordData("veca", va), wordData("vecb", vb))
	return core.Workload{Name: "seq_mult", Source: src, Ext: SeqMultExtension()}
}
