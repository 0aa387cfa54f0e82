// AVX2 form of the stripe walker: 16 lanes in two 8-wide YMM xorshift32
// vectors (see lanes.go for the contract and countStripesWideGo for the
// reference implementation).
//
// Lane layout: Y0 holds lanes 0-7, Y1 lanes 8-15. The unsigned compare
// "state < threshold" is the signed VPCMPGTD after biasing both sides
// by 0x80000000 (thresholds once at record load, states per draw via
// Y7). The remaining-draw counters also live in YMM registers
// (Y8/Y9): the per-round min reduction is a VPMINUD tree, the round
// decrement a VPSUBD, and drained lanes fall out of a
// VPCMPEQD-against-zero sign mask — the scalar sweep then touches only
// the lanes whose bit is set, found by BSF. Exhausted lanes idle on a
// sentinel (rem=~0, biased threshold INT32_MIN, never counted); a
// chunk walks at most 2^30 draws (maxChunkDraws), so decaying sentinels
// never reach a live range.
//
// Frame locals: remv[16] at -256(SP), count dump cbuf[16] at -192(SP),
// biased thresholds thrv[16] at -128(SP), slot[16] at -64(SP). The
// thrv/slot arrays are authoritative (edited at record load, vectors
// reloaded from them); remv/cbuf are dumped from the registers each
// round before the scalar sweep edits them.
// walkArgs field offsets (pinned by TestWalk16Layout): recs.ptr +0,
// counts.ptr +24, off +48, cnt +304, st +560; the kernel reads lanes
// 0-15 of off, cnt and st.

#include "textflag.h"

// func countStripes16AVX2(w *walkArgs)
TEXT ·countStripes16AVX2(SB), NOSPLIT, $256-8
	MOVQ w+0(FP), R9
	MOVQ 0(R9), SI             // recs data
	MOVQ 24(R9), DI            // counts data
	XORQ R15, R15              // live lane count

	// Load each lane's first record (or a sentinel).
	XORQ R12, R12
initlane:
	MOVL $0xFFFFFFFF, remv-256(SP)(R12*4)
	MOVL $0x80000000, thrv-128(SP)(R12*4)
	MOVL $0, slot-64(SP)(R12*4)
	MOVL 304(R9)(R12*4), CX    // cnt[j]
	TESTL CX, CX
	JZ initnext
	DECL CX
	MOVL CX, 304(R9)(R12*4)
	MOVL 48(R9)(R12*4), BX     // off[j]
	LEAL 1(BX), CX
	MOVL CX, 48(R9)(R12*4)
	LEAQ (BX)(BX*2), AX        // record at recs + off*12
	MOVL 0(SI)(AX*4), CX       // thr
	XORL $0x80000000, CX
	MOVL CX, thrv-128(SP)(R12*4)
	MOVL 4(SI)(AX*4), CX       // rem
	MOVL CX, remv-256(SP)(R12*4)
	MOVL 8(SI)(AX*4), CX       // slot
	MOVL CX, slot-64(SP)(R12*4)
	INCQ R15
initnext:
	INCQ R12
	CMPQ R12, $16
	JLT initlane

	VMOVDQU 560(R9), Y0        // states, lanes 0-7
	VMOVDQU 592(R9), Y1        // states, lanes 8-15
	VMOVDQU thrv-128(SP), Y2   // biased thresholds, lanes 0-7
	VMOVDQU thrv-96(SP), Y3    // biased thresholds, lanes 8-15
	VMOVDQU remv-256(SP), Y8   // remaining draws, lanes 0-7
	VMOVDQU remv-224(SP), Y9   // remaining draws, lanes 8-15
	MOVL $0x80000000, AX
	VMOVD AX, X7
	VPBROADCASTD X7, Y7        // sign-bias broadcast
	VPXOR Y4, Y4, Y4           // toggle counters, lanes 0-7
	VPXOR Y5, Y5, Y5           // toggle counters, lanes 8-15
	VPXOR Y14, Y14, Y14        // zero, for drained-lane compares

round:
	TESTQ R15, R15
	JZ walkdone

	// m = unsigned min over the 16 remaining-draw counters.
	VPMINUD Y8, Y9, Y10
	VEXTRACTI128 $1, Y10, X11
	VPMINUD X11, X10, X10
	VPSHUFD $0xEE, X10, X11
	VPMINUD X11, X10, X10
	VPSHUFD $0x55, X10, X11
	VPMINUD X11, X10, X10
	VMOVD X10, DX              // m >= 1

	// rem -= m; collect the drained-lane bitmask in R13.
	VPBROADCASTD X10, Y12
	VPSUBD Y12, Y8, Y8
	VPSUBD Y12, Y9, Y9
	VPCMPEQD Y14, Y8, Y10
	VMOVMSKPS Y10, AX
	VPCMPEQD Y14, Y9, Y10
	VMOVMSKPS Y10, BX
	SHLQ $8, BX
	ORQ BX, AX
	MOVQ AX, R13

inner:
	VPSLLD $13, Y0, Y6
	VPSLLD $13, Y1, Y10
	VPXOR Y6, Y0, Y0
	VPXOR Y10, Y1, Y1
	VPSRLD $17, Y0, Y6
	VPSRLD $17, Y1, Y10
	VPXOR Y6, Y0, Y0
	VPXOR Y10, Y1, Y1
	VPSLLD $5, Y0, Y6
	VPSLLD $5, Y1, Y10
	VPXOR Y6, Y0, Y0
	VPXOR Y10, Y1, Y1
	VPXOR Y7, Y0, Y6           // biased states 0-7
	VPXOR Y7, Y1, Y10          // biased states 8-15
	VPCMPGTD Y6, Y2, Y6        // thr_b > st_b  <=>  st < thr
	VPCMPGTD Y10, Y3, Y10
	VPSUBD Y6, Y4, Y4
	VPSUBD Y10, Y5, Y5
	DECL DX
	JNZ inner

	// Dump counters and remainders; the mask-driven sweep below edits
	// the drained lanes in place (thrv/slot are already authoritative).
	VMOVDQU Y4, cbuf-192(SP)
	VMOVDQU Y5, cbuf-160(SP)
	VMOVDQU Y8, remv-256(SP)
	VMOVDQU Y9, remv-224(SP)

drain:
	BSFQ R13, R12              // j = lowest drained lane
	LEAQ -1(R13), AX
	ANDQ AX, R13               // clear that bit
	MOVL slot-64(SP)(R12*4), AX
	MOVL cbuf-192(SP)(R12*4), BX
	ADDL BX, (DI)(AX*4)        // counts[slot[j]] += counter[j]
	MOVL $0, cbuf-192(SP)(R12*4)
	MOVL 304(R9)(R12*4), CX    // cnt[j]
	TESTL CX, CX
	JZ lanesent
	DECL CX
	MOVL CX, 304(R9)(R12*4)
	MOVL 48(R9)(R12*4), BX     // off[j]
	LEAL 1(BX), CX
	MOVL CX, 48(R9)(R12*4)
	LEAQ (BX)(BX*2), AX
	MOVL 0(SI)(AX*4), CX
	XORL $0x80000000, CX
	MOVL CX, thrv-128(SP)(R12*4)
	MOVL 4(SI)(AX*4), CX
	MOVL CX, remv-256(SP)(R12*4)
	MOVL 8(SI)(AX*4), CX
	MOVL CX, slot-64(SP)(R12*4)
	JMP drainnext
lanesent:
	MOVL $0xFFFFFFFF, remv-256(SP)(R12*4)
	MOVL $0x80000000, thrv-128(SP)(R12*4)
	MOVL $0, slot-64(SP)(R12*4)
	DECQ R15
drainnext:
	TESTQ R13, R13
	JNZ drain

	// Reinstall the vectors with drained lanes updated.
	VMOVDQU cbuf-192(SP), Y4
	VMOVDQU cbuf-160(SP), Y5
	VMOVDQU thrv-128(SP), Y2
	VMOVDQU thrv-96(SP), Y3
	VMOVDQU remv-256(SP), Y8
	VMOVDQU remv-224(SP), Y9
	JMP round

walkdone:
	VMOVDQU Y0, 560(R9)
	VMOVDQU Y1, 592(R9)
	VZEROUPPER
	RET
