package workloads

import (
	"fmt"
	"strings"

	"xtenergy/internal/core"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/tie"
)

// The Reed-Solomon experiment (paper Fig. 4): one application — the
// RS(255,247)-style systematic encoder plus the decoder side (syndrome
// computation over a codeword with one corrupted byte, followed by
// single-error location and correction) — implemented with four
// different custom-instruction choices, whose energies the macro-model
// must rank consistently with the reference estimator:
//
//	C1 rs_base   — base ISA only; GF multiplies via in-memory log/exp tables
//	C2 rs_gfmul  — single-cycle hardware GF multiplier
//	C3 rs_gfmac  — GF multiply-accumulate with the feedback byte latched
//	               in a TIE register
//	C4 rs_gffold — the whole LFSR parity state lives in TIE registers;
//	               one 3-cycle instruction folds a data byte into all
//	               eight taps
const (
	rsMsgLen  = 240
	rsPasses  = 8
	rsDeg     = 8
	rsOutAddr = 0x6000
	// Decoder side: the codeword (message || parity, highest degree
	// first) is assembled at rsCwAddr with one corrupted byte, and the
	// eight syndromes are written to rsSynAddr.
	rsCwAddr      = 0x7000
	rsCwLen       = rsMsgLen + rsDeg
	rsSynAddr     = rsOutAddr + rsDeg
	rsCorruptPos  = 17
	rsCorruptMask = 0x55
)

func rsMessage() []uint32 {
	v := randWords(rsMsgLen, 123)
	for i := range v {
		v[i] &= 0xFF
	}
	return v
}

// buildCodewordAsm emits assembly assembling the corrupted codeword at
// rsCwAddr from the message and the just-stored parity (descending
// degree order), matching rsCodewordRef.
func buildCodewordAsm() string {
	return fmt.Sprintf(`    movi a2, msg
    movi a3, %d
    movi a4, %d
bld_cp:
    l8ui a5, a2, 0
    s8i a5, a3, 0
    addi a2, a2, 1
    addi a3, a3, 1
    addi a4, a4, -1
    bnez a4, bld_cp
    movi a2, %d         ; parity, reversed into descending degree
    movi a4, %d
bld_par:
    addi a4, a4, -1
    add a5, a2, a4
    l8ui a5, a5, 0
    s8i a5, a3, 0
    addi a3, a3, 1
    bnez a4, bld_par
    movi a3, %d
    l8ui a5, a3, %d     ; corrupt one byte
    xori a5, a5, %d
    s8i a5, a3, %d
`, rsCwAddr, rsMsgLen, rsOutAddr, rsDeg, rsCwAddr, rsCorruptPos, rsCorruptMask, rsCorruptPos)
}

// GFFoldExtension is choice C4: the parity LFSR lives entirely in custom
// state. gfclr zeroes it, setcoef loads the generator, gffold folds one
// data byte through all eight taps in three cycles, and gfrdp reads the
// packed parity back.
func GFFoldExtension() *tie.Extension {
	// Custom state: regs[0..7] = generator coefficients,
	// regs[8..15] = parity bytes, regs[16..23] = decoder syndromes.
	return &tie.Extension{
		Name:          "gffold",
		NumCustomRegs: 24,
		Instructions: []*tie.Instruction{
			{
				Name: "setcoef", Latency: 1, ReadsGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_coefs", Cat: hwlib.CustomRegister, Width: 64}, true),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					s.Regs[int(op.RtVal)%rsDeg] = op.RsVal & 0xFF
					return 0
				},
			},
			{
				Name: "gfclr", Latency: 1,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_par", Cat: hwlib.CustomRegister, Width: 64}, false),
				},
				Semantics: func(s *tie.State, _ tie.Operands) uint32 {
					for i := rsDeg; i < 2*rsDeg; i++ {
						s.Regs[i] = 0
					}
					return 0
				},
			},
			{
				Name: "gffold", Latency: 3, ReadsGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_tab", Cat: hwlib.Table, Width: 8, Entries: 512}, true),
					dp(hwlib.Component{Name: "gl_mul", Cat: hwlib.TIEMult, Width: 16}, false),
					dp(hwlib.Component{Name: "gl_csa", Cat: hwlib.TIECsa, Width: 64}, false),
					dp(hwlib.Component{Name: "gl_xor", Cat: hwlib.LogicRedMux, Width: 64}, false),
					dp(hwlib.Component{Name: "gl_par", Cat: hwlib.CustomRegister, Width: 64}, false),
					dp(hwlib.Component{Name: "gl_coefs", Cat: hwlib.CustomRegister, Width: 64}, false),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					fb := (op.RsVal ^ s.Regs[2*rsDeg-1]) & 0xFF
					for j := rsDeg - 1; j > 0; j-- {
						s.Regs[rsDeg+j] = s.Regs[rsDeg+j-1] ^ gfMulByte(fb, s.Regs[j])
					}
					s.Regs[rsDeg] = gfMulByte(fb, s.Regs[0])
					return 0
				},
			},
			{
				Name: "gfrdp", Latency: 1, WritesGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_par", Cat: hwlib.CustomRegister, Width: 64}, false),
					dp(hwlib.Component{Name: "gl_rdmux", Cat: hwlib.LogicRedMux, Width: 32}, false),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					base := rsDeg + 4*(int(op.Rt)&1)
					return s.Regs[base] | s.Regs[base+1]<<8 |
						s.Regs[base+2]<<16 | s.Regs[base+3]<<24
				},
			},
			// Decoder side: all eight syndromes update in parallel per
			// received byte (S_i = S_i*alpha^i ^ c).
			{
				Name: "gfsynclr", Latency: 1,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_syn", Cat: hwlib.CustomRegister, Width: 64}, false),
				},
				Semantics: func(s *tie.State, _ tie.Operands) uint32 {
					for i := 2 * rsDeg; i < 3*rsDeg; i++ {
						s.Regs[i] = 0
					}
					return 0
				},
			},
			{
				Name: "gfsyn", Latency: 3, ReadsGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_tab", Cat: hwlib.Table, Width: 8, Entries: 512}, true),
					dp(hwlib.Component{Name: "gl_mul", Cat: hwlib.TIEMult, Width: 16}, false),
					dp(hwlib.Component{Name: "gl_csa", Cat: hwlib.TIECsa, Width: 64}, false),
					dp(hwlib.Component{Name: "gl_syn", Cat: hwlib.CustomRegister, Width: 64}, false),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					c := op.RsVal & 0xFF
					for i := 0; i < rsDeg; i++ {
						alpha := uint32(1) << uint(i)
						s.Regs[2*rsDeg+i] = gfMulByte(s.Regs[2*rsDeg+i], alpha) ^ c
					}
					return 0
				},
			},
			{
				Name: "gfsynrd", Latency: 1, WritesGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gl_syn", Cat: hwlib.CustomRegister, Width: 64}, false),
					dp(hwlib.Component{Name: "gl_rdmux", Cat: hwlib.LogicRedMux, Width: 32}, false),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					base := 2*rsDeg + 4*(int(op.Rt)&1)
					return s.Regs[base] | s.Regs[base+1]<<8 |
						s.Regs[base+2]<<16 | s.Regs[base+3]<<24
				},
			},
		},
	}
}

// Per-config syndrome kernels (Horner over the codeword). Each stores
// the eight syndrome bytes at rsSynAddr.

func synKernelBase() string {
	return fmt.Sprintf(`    movi a16, 0
syn_i:
    movi a5, 0
    movi a2, %d
    movi a3, %d
syn_b:
    l8ui a6, a2, 0
    beqz a5, syn_z
    movi a7, logtab
    add a7, a7, a5
    l8ui a7, a7, 0      ; log S
    add a7, a7, a16     ; + log alpha_i (= i)
    movi a8, exptab
    add a8, a8, a7
    l8ui a5, a8, 0      ; S * alpha_i
syn_z:
    xor a5, a5, a6
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, syn_b
    movi a7, %d
    add a7, a7, a16
    s8i a5, a7, 0
    addi a16, a16, 1
    blti a16, 8, syn_i
`, rsCwAddr, rsCwLen, rsSynAddr)
}

func synKernelGFMul() string {
	return fmt.Sprintf(`    movi a16, 0
syn_i:
    movi a5, 0
    movi a7, 1
    sll a7, a7, a16     ; alpha_i = 2^i
    movi a2, %d
    movi a3, %d
syn_b:
    l8ui a6, a2, 0
    gfmul a5, a5, a7
    xor a5, a5, a6
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, syn_b
    movi a8, %d
    add a8, a8, a16
    s8i a5, a8, 0
    addi a16, a16, 1
    blti a16, 8, syn_i
`, rsCwAddr, rsCwLen, rsSynAddr)
}

func synKernelGFMac() string {
	return fmt.Sprintf(`    movi a16, 0
syn_i:
    movi a5, 0
    movi a7, 1
    sll a7, a7, a16
    movi a2, %d
    movi a3, %d
syn_b:
    l8ui a6, a2, 0
    setfb a5, a5, a5    ; fb = S
    gfmac a5, a6, a7    ; S = c ^ S*alpha_i
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, syn_b
    movi a8, %d
    add a8, a8, a16
    s8i a5, a8, 0
    addi a16, a16, 1
    blti a16, 8, syn_i
`, rsCwAddr, rsCwLen, rsSynAddr)
}

// correctionAsm emits the single-error corrector shared by all four
// configurations: with one corrupted byte, S0 is the error magnitude and
// S1 = S0 * alpha^d locates it (d = the coefficient degree). The search
// multiplies by alpha with the 3-instruction base-ALU "xtime" step, so
// no extra custom hardware is needed. The corrected byte is patched in
// place at rsCwAddr.
func correctionAsm() string {
	return fmt.Sprintf(`    movi a2, %d
    l8ui a4, a2, 0      ; S0 = error magnitude
    l8ui a5, a2, 1      ; S1 = S0 * alpha^d
    beqz a4, c_done     ; zero syndromes: nothing to fix
    mov a6, a4          ; t = S0 * alpha^0
    movi a7, 0          ; d
    movi a9, %d
c_find:
    beq a6, a5, c_found
    slli a6, a6, 1      ; t *= alpha (xtime)
    bbci a6, 8, c_sk
    xori a6, a6, 0x11D
c_sk:
    addi a7, a7, 1
    blt a7, a9, c_find
    j c_done            ; unlocatable (not a single error)
c_found:
    movi a8, %d         ; idx = CWLEN-1-d
    sub a8, a8, a7
    movi a10, %d
    add a10, a10, a8
    l8ui a11, a10, 0
    xor a11, a11, a4    ; cancel the error magnitude
    s8i a11, a10, 0
c_done:
`, rsSynAddr, rsCwLen, rsCwLen-1, rsCwAddr)
}

func synKernelGFFold() string {
	return fmt.Sprintf(`    gfsynclr a0, a0, a0
    movi a2, %d
    movi a3, %d
syn_b:
    l8ui a10, a2, 0
    gfsyn a0, a10, a10
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, syn_b
    gfsynrd a20, a0, a0
    gfsynrd a21, a0, a1
    movi a12, %d
    s32i a20, a12, 0
    s32i a21, a12, 4
`, rsCwAddr, rsCwLen, rsSynAddr)
}

// storeParityBytes emits stores of parity registers a20..a27 to the
// output area.
func storeParityBytes() string {
	var b strings.Builder
	fmt.Fprintf(&b, "    movi a12, %d\n", rsOutAddr)
	for j := 0; j < rsDeg; j++ {
		fmt.Fprintf(&b, "    s8i a%d, a12, %d\n", 20+j, j)
	}
	return b.String()
}

// clearParityRegs emits code zeroing parity registers a20..a27.
func clearParityRegs() string {
	var b strings.Builder
	for j := 0; j < rsDeg; j++ {
		fmt.Fprintf(&b, "    movi a%d, 0\n", 20+j)
	}
	return b.String()
}

// ReedSolomonBase is configuration C1: GF multiplication via log/antilog
// tables in data memory, taps unrolled with precomputed log(g[j]).
func ReedSolomonBase() core.Workload {
	logT, expT := gfTables()
	gen := rsGenPoly(rsDeg)

	var taps strings.Builder
	for j := rsDeg - 1; j > 0; j-- {
		fmt.Fprintf(&taps, "    l8ui a13, a12, %d\n    xor a%d, a%d, a13\n",
			logT[gen[j]], 20+j, 20+j-1)
	}
	fmt.Fprintf(&taps, "    l8ui a20, a12, %d\n", logT[gen[0]])

	var shift strings.Builder
	for j := rsDeg - 1; j > 0; j-- {
		fmt.Fprintf(&shift, "    mov a%d, a%d\n", 20+j, 20+j-1)
	}
	shift.WriteString("    movi a20, 0\n")

	src := fmt.Sprintf(`start:
    movi a14, %d        ; passes
r_pass:
%s    movi a2, msg
    movi a3, %d
r_byte:
    l8ui a10, a2, 0
    xor a10, a10, a27   ; fb = d ^ par[7]
    beqz a10, r_zero
    movi a11, logtab
    add a11, a11, a10
    l8ui a11, a11, 0    ; log(fb)
    movi a12, exptab
    add a12, a12, a11   ; &exp[log(fb)]
%s    j r_next
r_zero:
%sr_next:
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, r_byte
    addi a14, a14, -1
    bnez a14, r_pass
%s%s%s    ret
.data 0x1000
%s%s%s`,
		rsPasses, clearParityRegs(), rsMsgLen, taps.String(), shift.String(),
		storeParityBytes(), buildCodewordAsm(), synKernelBase()+correctionAsm(),
		byteData("msg", rsMessage()),
		byteData("logtab", logT[:]),
		byteData("exptab", expT[:]))
	return core.Workload{Name: "rs_base", Source: src}
}

// rsCustomKernel builds the shared program shape of C2/C3: coefficients
// in general registers a30..a37, parity in a20..a27, tap updates emitted
// by the callback.
func rsCustomKernel(name string, ext *tie.Extension, perByte func() string, syn string) core.Workload {
	gen := rsGenPoly(rsDeg)
	// Generator coefficients live in a30..a37 (clear of the kernel's
	// scratch registers a10-a14 and parity a20-a27).
	var coefs strings.Builder
	for j := 0; j < rsDeg; j++ {
		fmt.Fprintf(&coefs, "    movi a%d, %d\n", 30+j, gen[j])
	}
	src := fmt.Sprintf(`start:
%s    movi a19, 0
    movi a14, %d
r_pass:
%s    movi a2, msg
    movi a3, %d
r_byte:
    l8ui a10, a2, 0
%s    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, r_byte
    addi a14, a14, -1
    bnez a14, r_pass
%s%s%s    ret
.data 0x1000
%s`, coefs.String(), rsPasses, clearParityRegs(), rsMsgLen, perByte(),
		storeParityBytes(), buildCodewordAsm(), syn+correctionAsm(), byteData("msg", rsMessage()))
	return core.Workload{Name: name, Source: src, Ext: ext}
}

// ReedSolomonGFMul is configuration C2.
func ReedSolomonGFMul() core.Workload {
	return rsCustomKernel("rs_gfmul", GFMulExtension(), func() string {
		var b strings.Builder
		b.WriteString("    xor a10, a10, a27   ; fb\n")
		for j := rsDeg - 1; j > 0; j-- {
			fmt.Fprintf(&b, "    gfmul a13, a10, a%d\n    xor a%d, a%d, a13\n",
				30+j, 20+j, 20+j-1)
		}
		b.WriteString("    gfmul a20, a10, a30\n")
		return b.String()
	}, synKernelGFMul())
}

// ReedSolomonGFMac is configuration C3.
func ReedSolomonGFMac() core.Workload {
	return rsCustomKernel("rs_gfmac", GFMacExtension(), func() string {
		var b strings.Builder
		b.WriteString("    xor a10, a10, a27\n    setfb a10, a10, a10\n")
		for j := rsDeg - 1; j > 0; j-- {
			fmt.Fprintf(&b, "    gfmac a%d, a%d, a%d\n", 20+j, 20+j-1, 30+j)
		}
		b.WriteString("    gfmac a20, a19, a30\n") // a19 = 0
		return b.String()
	}, synKernelGFMac())
}

// ReedSolomonGFFold is configuration C4: one custom instruction folds a
// byte through the whole LFSR.
func ReedSolomonGFFold() core.Workload {
	gen := rsGenPoly(rsDeg)
	var coefs strings.Builder
	for j := 0; j < rsDeg; j++ {
		fmt.Fprintf(&coefs, "    movi a4, %d\n    movi a5, %d\n    setcoef a0, a4, a5\n", gen[j], j)
	}
	src := fmt.Sprintf(`start:
%s    movi a14, %d
r_pass:
    gfclr a0, a0, a0
    movi a2, msg
    movi a3, %d
r_byte:
    l8ui a10, a2, 0
    gffold a0, a10, a10
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, r_byte
    addi a14, a14, -1
    bnez a14, r_pass
    gfrdp a20, a0, a0   ; parity bytes 0..3 (rt field = 0)
    gfrdp a21, a0, a1   ; parity bytes 4..7 (rt field = 1)
    movi a12, %d
    s32i a20, a12, 0
    s32i a21, a12, 4
%s%s    ret
.data 0x1000
%s`, coefs.String(), rsPasses, rsMsgLen, rsOutAddr,
		buildCodewordAsm(), synKernelGFFold()+correctionAsm(), byteData("msg", rsMessage()))
	return core.Workload{Name: "rs_gffold", Source: src, Ext: GFFoldExtension()}
}

// ReedSolomonConfigurations returns the four Fig. 4 custom-instruction
// choices in order C1..C4.
func ReedSolomonConfigurations() []core.Workload {
	return []core.Workload{
		ReedSolomonBase(), ReedSolomonGFMul(), ReedSolomonGFMac(), ReedSolomonGFFold(),
	}
}
