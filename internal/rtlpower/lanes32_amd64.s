// AVX-512 form of the stripe walker: 32 lanes in two 16-wide ZMM
// xorshift32 vectors (see lanes.go for the contract and
// countStripesWideGo for the reference implementation).
//
// Lane layout: Z0 holds lanes 0-15, Z1 lanes 16-31. Unlike the AVX2
// tier there is no sign-bias trick: VPCMPUD $1 compares
// unsigned less-than directly into an opmask, and the per-lane toggle
// counters (Z4/Z5) advance with a masked VPADDD of broadcast-one
// (Z10). Thresholds are kept raw; the exhausted-lane sentinel
// threshold is 0, which no state is ever unsigned-less-than.
//
// The two halves run as independent 16-lane walkers with separate
// round clocks, alternating one round each: a lockstep round advances
// its group by the minimum remaining draw count over 16 lanes (about
// twice the advance a 32-lane min would allow), and the two groups'
// round-boundary dependency chains — min reduction, drained-lane
// repair, next min — are independent, so the out-of-order window
// overlaps one group's boundary work with the other's draw loop.
// Results are unchanged: per-segment toggle counts are integers,
// accumulated per lane and flushed per record, whatever the relative
// progress of the groups.
//
// All per-round state is register-resident: thresholds (Z2/Z3),
// counters (Z4/Z5), and remaining draws (Z6/Z7) never round-trip
// through the stack between rounds — drained lanes are repaired in
// place with per-lane opmasks (VPBROADCASTD + merge-masked VMOVDQA32,
// VPCOMPRESSD to extract the drained counter). Only the slot indices
// live on the stack (scalar-read only). Chunk totals are capped below
// 2^31 draws, so decaying sentinels (rem=~0) never reach live range.
//
// Frame locals: init scratch thrv[32] at -384(SP) and remv[32] at
// -256(SP) (dead after the vectors first load), slot[32] at -128(SP).
// walk32 field offsets (pinned by TestWalk32Layout): recs.ptr +0,
// counts.ptr +24, off +48, cnt +176, st +304.

#include "textflag.h"

// func countStripes32AVX512(w *walk32)
TEXT ·countStripes32AVX512(SB), NOSPLIT, $384-8
	MOVQ w+0(FP), R9
	MOVQ 0(R9), SI             // recs data
	MOVQ 24(R9), DI            // counts data
	XORQ R15, R15              // live lanes, group A (0-15)
	XORQ R14, R14              // live lanes, group B (16-31)

	// Load each lane's first record (or a sentinel).
	XORQ R12, R12
initlane:
	MOVL $0xFFFFFFFF, remv-256(SP)(R12*4)
	MOVL $0, thrv-384(SP)(R12*4)
	MOVL $0, slot-128(SP)(R12*4)
	MOVL 176(R9)(R12*4), CX    // cnt[j]
	TESTL CX, CX
	JZ initnext
	DECL CX
	MOVL CX, 176(R9)(R12*4)
	MOVL 48(R9)(R12*4), BX     // off[j]
	LEAL 1(BX), CX
	MOVL CX, 48(R9)(R12*4)
	LEAQ (BX)(BX*2), AX        // record at recs + off*12
	MOVL 0(SI)(AX*4), CX       // thr (raw)
	MOVL CX, thrv-384(SP)(R12*4)
	MOVL 4(SI)(AX*4), CX       // rem
	MOVL CX, remv-256(SP)(R12*4)
	MOVL 8(SI)(AX*4), CX       // slot
	MOVL CX, slot-128(SP)(R12*4)
	CMPQ R12, $16
	JGE initliveb
	INCQ R15
	JMP initnext
initliveb:
	INCQ R14
initnext:
	INCQ R12
	CMPQ R12, $32
	JLT initlane

	VMOVDQU32 304(R9), Z0      // states, lanes 0-15
	VMOVDQU32 368(R9), Z1      // states, lanes 16-31
	VMOVDQU32 thrv-384(SP), Z2 // thresholds, lanes 0-15
	VMOVDQU32 thrv-320(SP), Z3 // thresholds, lanes 16-31
	VMOVDQU32 remv-256(SP), Z6 // remaining draws, lanes 0-15
	VMOVDQU32 remv-192(SP), Z7 // remaining draws, lanes 16-31
	VPXORD Z4, Z4, Z4          // toggle counters, lanes 0-15
	VPXORD Z5, Z5, Z5          // toggle counters, lanes 16-31
	VPXORD Z9, Z9, Z9          // zero, for drained-lane compares
	MOVL $1, AX
	VPBROADCASTD AX, Z10       // +1 per counting lane

	// The loop is rotated so each group's round-boundary work (min
	// reduction, remaining-draw update, drain mask) is staged right
	// after its own drain, BEFORE the other group's branch-heavy draw
	// loop: work preceding a mispredicted loop exit survives the
	// flush, so when one group's draw loop mispredicts its exit, the
	// other group's next round is already computed and its repairs and
	// draw loop issue immediately. The staging runs unconditionally —
	// on a dead group it only decays sentinel lanes in lockstep (they
	// all stay equal, so the min subtract zeroes them at worst) and
	// the staged m/mask are never consumed.
	//
	// Stage group A's first round: m = unsigned min over lanes 0-15
	// (DX), drain mask (R13).
	VEXTRACTI64X4 $1, Z6, Y8
	VPMINUD Y8, Y6, Y8
	VEXTRACTI128 $1, Y8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0xEE, X8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0x55, X8, X11
	VPMINUD X11, X8, X8
	VMOVD X8, DX
	VPBROADCASTD X8, Z12
	VPSUBD Z12, Z6, Z6
	VPCMPEQD Z9, Z6, K1
	KMOVW K1, R13

	// Stage group B's first round: m (R8), drain mask (R10).
	VEXTRACTI64X4 $1, Z7, Y8
	VPMINUD Y8, Y7, Y8
	VEXTRACTI128 $1, Y8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0xEE, X8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0x55, X8, X11
	VPMINUD X11, X8, X8
	VMOVD X8, R8
	VPBROADCASTD X8, Z12
	VPSUBD Z12, Z7, Z7
	VPCMPEQD Z9, Z7, K2
	KMOVW K2, R10

mainloop:
	TESTQ R15, R15
	JZ skipa

innera:
	VPSLLD $13, Z0, Z8
	VPXORD Z8, Z0, Z0
	VPSRLD $17, Z0, Z8
	VPXORD Z8, Z0, Z0
	VPSLLD $5, Z0, Z8
	VPXORD Z8, Z0, Z0
	VPCMPUD $1, Z2, Z0, K1     // K1 = state < thr, unsigned
	VPADDD Z10, Z4, K1, Z4
	DECL DX
	JNZ innera

draina:
	BSFQ R13, R12              // j = lowest drained lane (0-15)
	LEAQ -1(R13), AX
	ANDQ AX, R13               // clear that bit
	MOVQ R12, CX
	MOVL $1, AX
	SHLL CX, AX
	KMOVW AX, K3               // single-lane opmask
	VPCOMPRESSD.Z Z4, K3, Z8   // counter of lane j -> element 0
	VMOVD X8, BX
	MOVL slot-128(SP)(R12*4), AX
	ADDL BX, (DI)(AX*4)        // counts[slot[j]] += counter[j]
	VMOVDQA32 Z9, K3, Z4       // zero the drained counter lane
	MOVL 176(R9)(R12*4), CX    // cnt[j]
	TESTL CX, CX
	JZ lanesenta
	DECL CX
	MOVL CX, 176(R9)(R12*4)
	MOVL 48(R9)(R12*4), BX     // off[j]
	LEAL 1(BX), CX
	MOVL CX, 48(R9)(R12*4)
	LEAQ (BX)(BX*2), AX
	MOVL 0(SI)(AX*4), CX       // thr
	VPBROADCASTD CX, Z8
	VMOVDQA32 Z8, K3, Z2
	MOVL 4(SI)(AX*4), CX       // rem
	VPBROADCASTD CX, Z8
	VMOVDQA32 Z8, K3, Z6
	MOVL 8(SI)(AX*4), CX       // slot
	MOVL CX, slot-128(SP)(R12*4)
	PREFETCHT0 12(SI)(AX*4)    // lane j's next record (sequential run)
	JMP drainanext
lanesenta:
	VMOVDQA32 Z9, K3, Z2       // sentinel thr = 0
	MOVL $0xFFFFFFFF, CX
	VPBROADCASTD CX, Z8
	VMOVDQA32 Z8, K3, Z6       // sentinel rem = ~0
	DECQ R15
drainanext:
	TESTQ R13, R13
	JNZ draina

skipa:
	// Stage group A's next round while B's draw loop runs.
	VEXTRACTI64X4 $1, Z6, Y8
	VPMINUD Y8, Y6, Y8
	VEXTRACTI128 $1, Y8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0xEE, X8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0x55, X8, X11
	VPMINUD X11, X8, X8
	VMOVD X8, DX
	VPBROADCASTD X8, Z12
	VPSUBD Z12, Z6, Z6
	VPCMPEQD Z9, Z6, K1
	KMOVW K1, R13

	TESTQ R14, R14
	JZ skipb

innerb:
	VPSLLD $13, Z1, Z11
	VPXORD Z11, Z1, Z1
	VPSRLD $17, Z1, Z11
	VPXORD Z11, Z1, Z1
	VPSLLD $5, Z1, Z11
	VPXORD Z11, Z1, Z1
	VPCMPUD $1, Z3, Z1, K2
	VPADDD Z10, Z5, K2, Z5
	DECL R8                    // group B's staged m
	JNZ innerb

drainb:
	BSFQ R10, R12              // j-16 = lowest drained lane bit
	LEAQ -1(R10), AX
	ANDQ AX, R10
	MOVQ R12, CX
	MOVL $1, AX
	SHLL CX, AX
	KMOVW AX, K3
	ADDQ $16, R12              // j = lane index in walk order
	VPCOMPRESSD.Z Z5, K3, Z8
	VMOVD X8, BX
	MOVL slot-128(SP)(R12*4), AX
	ADDL BX, (DI)(AX*4)
	VMOVDQA32 Z9, K3, Z5       // zero the drained counter lane
	MOVL 176(R9)(R12*4), CX
	TESTL CX, CX
	JZ lanesentb
	DECL CX
	MOVL CX, 176(R9)(R12*4)
	MOVL 48(R9)(R12*4), BX
	LEAL 1(BX), CX
	MOVL CX, 48(R9)(R12*4)
	LEAQ (BX)(BX*2), AX
	MOVL 0(SI)(AX*4), CX
	VPBROADCASTD CX, Z8
	VMOVDQA32 Z8, K3, Z3
	MOVL 4(SI)(AX*4), CX
	VPBROADCASTD CX, Z8
	VMOVDQA32 Z8, K3, Z7
	MOVL 8(SI)(AX*4), CX
	MOVL CX, slot-128(SP)(R12*4)
	PREFETCHT0 12(SI)(AX*4)    // lane j's next record (sequential run)
	JMP drainbnext
lanesentb:
	VMOVDQA32 Z9, K3, Z3
	MOVL $0xFFFFFFFF, CX
	VPBROADCASTD CX, Z8
	VMOVDQA32 Z8, K3, Z7
	DECQ R14
drainbnext:
	TESTQ R10, R10
	JNZ drainb

skipb:
	// Stage group B's next round while A's draw loop runs.
	VEXTRACTI64X4 $1, Z7, Y8
	VPMINUD Y8, Y7, Y8
	VEXTRACTI128 $1, Y8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0xEE, X8, X11
	VPMINUD X11, X8, X8
	VPSHUFD $0x55, X8, X11
	VPMINUD X11, X8, X8
	VMOVD X8, R8
	VPBROADCASTD X8, Z12
	VPSUBD Z12, Z7, Z7
	VPCMPEQD Z9, Z7, K2
	KMOVW K2, R10

	MOVQ R15, AX
	ORQ R14, AX
	JNZ mainloop

	VMOVDQU32 Z0, 304(R9)
	VMOVDQU32 Z1, 368(R9)
	VZEROUPPER
	RET
