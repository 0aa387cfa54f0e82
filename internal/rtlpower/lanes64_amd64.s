// AVX-512 form of the stripe walker: 64 lanes in four 16-wide ZMM
// xorshift32 vectors on one round clock (see lanes.go for the contract
// and countStripesWideGo for the reference implementation).
//
// Lane layout: Z0-Z3 hold the states of lanes 0-15, 16-31, 32-47 and
// 48-63. Each draw-loop iteration advances all four vectors: four
// independent shift/xor chains, so the loop runs at the vector ports'
// throughput instead of one chain's ~6-cycle latency. VPCMPUD $1
// compares unsigned less-than directly into an opmask, and the per-lane
// toggle counters (Z8-Z11) advance with a masked VPADDD of
// broadcast-one (Z20). Thresholds (Z4-Z7) are kept raw; the
// exhausted-lane sentinel threshold is 0, which no state is ever
// unsigned-less-than.
//
// A lockstep round advances every lane to the nearest record end among
// the 64 lanes, so the loop exits once per record boundary whatever the
// lane width. Each lane's record end is kept as an absolute draw index
// (Z12-Z15): the round's end is their unsigned minimum, its draw count
// the distance from the previous round's end, and the lanes that drain
// are those whose end equals the minimum. An exhausted lane's end is at
// least 2^31; a chunk walks at most 2^30 draws (maxChunkDraws), so a
// live end never reaches it, and a minimum with the sign bit set means
// every lane is exhausted.
//
// Round-boundary work is vector-wide, not per lane: each lane's next
// record waits in memory (nt: threshold, nr: length), so after a
// round's loop two masked loads per vector install the drained lanes'
// thresholds and ends whatever the number of drained lanes. Scalar code
// then refills nt/nr from the following record — at the lane's next
// drain at the earliest, a round later — and flushes the drained
// records' counts. That scalar flush of round r-1 runs after round r's
// end is known and before round r's loop, so it overlaps the loop
// instead of delaying it. Counters are cumulative per lane and never
// reset: a drained record's toggles are cbuf[j] - base[j], and base
// advances to cbuf[j]. The record a lane is counting is cur[j], so the
// flush reads the count's slot from the record array.
//
// Registers: R13 holds the drain mask of the running round (all 64
// lanes), R14 the previous round's, still to flush; K2-K5 the running
// round's drain mask per vector; K1 and K6 the loop's compare masks;
// R15 the previous round's end; DX the round's draw count.
//
// Frame: R8 points at 64-byte-aligned uint32[64] buffers cbuf (+0, the
// counters at the last round end), base (+256), cur (+512), nt (+768)
// and nr (+1024); cbuf and base double as the first records'
// threshold and end at init. walkArgs field offsets (pinned by
// TestWalk64Layout): recs.ptr +0, counts.ptr +24, off +48, cnt +304,
// st +560.

#include "textflag.h"

// func countStripes64AVX512(w *walkArgs)
TEXT ·countStripes64AVX512(SB), 0, $1344-8
	MOVQ w+0(FP), R9
	LEAQ frame-1344(SP), R8
	ADDQ $63, R8
	ANDQ $~63, R8              // 64-byte aligned buffers
	MOVQ 0(R9), SI             // recs data
	MOVQ 24(R9), DI            // counts data

	// Per lane: the first record's threshold and end, the second
	// record's threshold and length (or sentinels), and cur.
	XORQ R12, R12
initlane:
	MOVL 48(R9)(R12*4), BX     // off[j]
	MOVL BX, 512(R8)(R12*4)    // cur[j]: the lane's first record
	MOVL 304(R9)(R12*4), CX    // cnt[j]
	MOVL $0, 0(R8)(R12*4)
	MOVL $0x80000000, 256(R8)(R12*4)
	MOVL $0, 768(R8)(R12*4)
	MOVL $0x80000000, 1024(R8)(R12*4)
	TESTL CX, CX
	JZ initnext
	LEAQ (BX)(BX*2), AX        // record at recs + off*12
	MOVL 0(SI)(AX*4), DX       // thr (raw)
	MOVL DX, 0(R8)(R12*4)
	MOVL 4(SI)(AX*4), DX       // rem: the record ends rem draws in
	MOVL DX, 256(R8)(R12*4)
	INCL BX
	DECL CX
	JZ initstore
	MOVL 12(SI)(AX*4), DX      // the second record
	MOVL DX, 768(R8)(R12*4)
	MOVL 16(SI)(AX*4), DX
	MOVL DX, 1024(R8)(R12*4)
	INCL BX
	DECL CX
initstore:
	MOVL CX, 304(R9)(R12*4)    // off/cnt: the records not yet loaded
	MOVL BX, 48(R9)(R12*4)
initnext:
	INCQ R12
	CMPQ R12, $64
	JLT initlane

	VMOVDQU32 560(R9), Z0      // states
	VMOVDQU32 624(R9), Z1
	VMOVDQU32 688(R9), Z2
	VMOVDQU32 752(R9), Z3
	VMOVDQU32 0(R8), Z4        // thresholds
	VMOVDQU32 64(R8), Z5
	VMOVDQU32 128(R8), Z6
	VMOVDQU32 192(R8), Z7
	VMOVDQU32 256(R8), Z12     // record ends
	VMOVDQU32 320(R8), Z13
	VMOVDQU32 384(R8), Z14
	VMOVDQU32 448(R8), Z15
	VPXORD Z8, Z8, Z8          // toggle counters
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VMOVDQU32 Z8, 256(R8)      // base = 0
	VMOVDQU32 Z8, 320(R8)
	VMOVDQU32 Z8, 384(R8)
	VMOVDQU32 Z8, 448(R8)
	MOVL $1, AX
	VPBROADCASTD AX, Z20       // +1 per counting lane
	XORQ R15, R15              // the walk starts at draw 0
	XORQ R14, R14              // and has no round to flush

round:
	// The round's end: the unsigned minimum of the 64 record ends,
	// broadcast to every element of Z22 by a butterfly of swaps.
	VPMINUD Z13, Z12, Z22
	VPMINUD Z15, Z14, Z23
	VPMINUD Z23, Z22, Z22
	VSHUFI32X4 $0x4E, Z22, Z22, Z23 // swap 256-bit halves
	VPMINUD Z23, Z22, Z22
	VSHUFI32X4 $0xB1, Z22, Z22, Z23 // swap 128-bit lanes
	VPMINUD Z23, Z22, Z22
	VPSHUFD $0x4E, Z22, Z23
	VPMINUD Z23, Z22, Z22
	VPSHUFD $0xB1, Z22, Z23
	VPMINUD Z23, Z22, Z22
	VMOVD X22, DX
	TESTL DX, DX
	JNS live
	XORL DX, DX                // every lane is exhausted: flush the
	JMP flushlanes             // last round and stop
live:
	// The lanes that drain at the round's end, per vector and in R13.
	VPCMPEQD Z22, Z12, K2
	VPCMPEQD Z22, Z13, K3
	VPCMPEQD Z22, Z14, K4
	VPCMPEQD Z22, Z15, K5
	KMOVW K2, R13
	KMOVW K3, AX
	KMOVW K4, BX
	KMOVW K5, CX
	SHLQ $16, AX
	SHLQ $32, BX
	SHLQ $48, CX
	ORQ AX, R13
	ORQ CX, BX
	ORQ BX, R13
	MOVL DX, AX
	SUBL R15, DX               // draws in this round
	MOVL AX, R15

flushlanes:
	// Flush the previous round's drained records and refill those
	// lanes' next-record slots.
	TESTQ R14, R14
	JZ flushed
flush:
	BSFQ R14, R12              // j = lowest lane left to flush
	LEAQ -1(R14), AX
	ANDQ AX, R14               // clear that bit
	MOVL 0(R8)(R12*4), BX      // cbuf[j]
	MOVL 256(R8)(R12*4), CX    // base[j]
	MOVL BX, 256(R8)(R12*4)
	SUBL CX, BX                // toggles over lane j's ended record
	MOVL 512(R8)(R12*4), AX    // cur[j]
	LEAL 1(AX), CX
	MOVL CX, 512(R8)(R12*4)
	LEAQ (AX)(AX*2), AX
	MOVL 8(SI)(AX*4), AX       // its slot
	ADDL BX, (DI)(AX*4)        // counts[slot] += toggles
	MOVL 304(R9)(R12*4), CX    // cnt[j]
	TESTL CX, CX
	JZ flushsent
	DECL CX
	MOVL CX, 304(R9)(R12*4)
	MOVL 48(R9)(R12*4), BX     // off[j]
	LEAL 1(BX), CX
	MOVL CX, 48(R9)(R12*4)
	LEAQ (BX)(BX*2), AX
	MOVL 0(SI)(AX*4), CX       // thr
	MOVL CX, 768(R8)(R12*4)
	MOVL 4(SI)(AX*4), CX       // rem
	MOVL CX, 1024(R8)(R12*4)
	PREFETCHT0 12(SI)(AX*4)    // lane j's next record (sequential run)
flushnext:
	TESTQ R14, R14
	JNZ flush
flushed:
	TESTL DX, DX
	JZ done

inner:
	VPSLLD $13, Z0, Z16
	VPSLLD $13, Z1, Z17
	VPSLLD $13, Z2, Z18
	VPSLLD $13, Z3, Z19
	VPXORD Z16, Z0, Z0
	VPXORD Z17, Z1, Z1
	VPXORD Z18, Z2, Z2
	VPXORD Z19, Z3, Z3
	VPSRLD $17, Z0, Z16
	VPSRLD $17, Z1, Z17
	VPSRLD $17, Z2, Z18
	VPSRLD $17, Z3, Z19
	VPXORD Z16, Z0, Z0
	VPXORD Z17, Z1, Z1
	VPXORD Z18, Z2, Z2
	VPXORD Z19, Z3, Z3
	VPSLLD $5, Z0, Z16
	VPSLLD $5, Z1, Z17
	VPSLLD $5, Z2, Z18
	VPSLLD $5, Z3, Z19
	VPXORD Z16, Z0, Z0
	VPXORD Z17, Z1, Z1
	VPXORD Z18, Z2, Z2
	VPXORD Z19, Z3, Z3
	VPCMPUD $1, Z4, Z0, K1     // K1 = state < thr, unsigned
	VPADDD Z20, Z8, K1, Z8
	VPCMPUD $1, Z5, Z1, K6
	VPADDD Z20, Z9, K6, Z9
	VPCMPUD $1, Z6, Z2, K1
	VPADDD Z20, Z10, K1, Z10
	VPCMPUD $1, Z7, Z3, K6
	VPADDD Z20, Z11, K6, Z11
	DECL DX
	JNZ inner

	// Round end: spill the counters for the flush, and move the
	// drained lanes onto their next records.
	VMOVDQU32 Z8, 0(R8)
	VMOVDQU32 Z9, 64(R8)
	VMOVDQU32 Z10, 128(R8)
	VMOVDQU32 Z11, 192(R8)
	VMOVDQU32 768(R8), K2, Z4  // thresholds
	VMOVDQU32 832(R8), K3, Z5
	VMOVDQU32 896(R8), K4, Z6
	VMOVDQU32 960(R8), K5, Z7
	VPADDD 1024(R8), Z22, K2, Z12 // ends: the round's end + length
	VPADDD 1088(R8), Z22, K3, Z13
	VPADDD 1152(R8), Z22, K4, Z14
	VPADDD 1216(R8), Z22, K5, Z15
	MOVQ R13, R14
	JMP round

done:
	VMOVDQU32 Z0, 560(R9)
	VMOVDQU32 Z1, 624(R9)
	VMOVDQU32 Z2, 688(R9)
	VMOVDQU32 Z3, 752(R9)
	VZEROUPPER
	RET

flushsent:
	MOVL $0, 768(R8)(R12*4)           // exhausted: sentinel threshold
	MOVL $0x80000000, 1024(R8)(R12*4) // and an end past every live one
	JMP flushnext
