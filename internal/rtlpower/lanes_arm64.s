// NEON (Advanced SIMD) form of the 8-lane stripe walker (see lanes.go
// for the contract and countStripes8Go for the reference
// implementation).
//
// Lane layout: V0 holds lanes 0-3, V1 lanes 4-7. The Go arm64
// assembler exposes no vector unsigned compare-greater, so the strict
// unsigned "state < thr" is computed as "umin(state, thr-1) == state"
// (VUMIN + VCMEQ): exact because xorshift32 states are never zero
// (seeds are or-ed with 1), and records with thr == 0 load a clamped
// thr-1 of 0, which no state ever equals — including the exhausted-lane
// sentinel. Toggle counters accumulate in V4/V5 (VSUB of the all-ones
// compare mask) and are flushed to counts[rec.slot] when a record
// drains. Chunk totals are capped below 2^31 draws so decaying
// sentinels (rem=~0) never reach live range.
//
// Frame locals: rem[8] at -128(SP), count dump cbuf[8] at -96(SP),
// clamped thresholds thrm[8] (thr-1, or 0 for thr==0) at -64(SP),
// slot[8] at -32(SP).
// walk8 field offsets (pinned by TestWalk8Layout): recs.ptr +0,
// counts.ptr +24, off +48, cnt +80, st +112.

#include "textflag.h"

// func countStripes8NEON(w *walk8)
TEXT ·countStripes8NEON(SB), NOSPLIT, $128-8
	MOVD w+0(FP), R9
	MOVD 0(R9), R10            // recs data
	MOVD 24(R9), R11           // counts data
	ADD $48, R9, R12           // &off[0]
	ADD $80, R9, R13           // &cnt[0]
	MOVD $rem-128(SP), R14
	MOVD $cbuf-96(SP), R15
	MOVD $thrm-64(SP), R16
	MOVD $slot-32(SP), R17
	MOVD ZR, R19               // live lane count

	// Load each lane's first record (or a sentinel).
	MOVD ZR, R5                // j
init:
	LSL $2, R5, R6
	MOVD $-1, R2
	ADD R6, R14, R7
	MOVW R2, (R7)              // rem[j] = sentinel
	ADD R6, R16, R7
	MOVW ZR, (R7)              // thrm[j] = 0 (never counts)
	ADD R6, R17, R7
	MOVW ZR, (R7)              // slot[j] = 0
	ADD R6, R13, R7
	MOVWU (R7), R2             // cnt[j]
	CBZ R2, initnext
	SUB $1, R2
	MOVW R2, (R7)
	ADD R6, R12, R7
	MOVWU (R7), R3             // off[j]
	ADD $1, R3, R2
	MOVW R2, (R7)
	ADD R3<<1, R3, R3          // off*3
	ADD R3<<2, R10, R3         // record at recs + off*12
	MOVWU (R3), R2             // thr
	SUBS $1, R2, R4            // thr-1, borrow iff thr == 0
	CSEL LO, ZR, R4, R4        // clamp thr==0 to 0
	ADD R6, R16, R7
	MOVW R4, (R7)
	MOVWU 4(R3), R2            // rem
	ADD R6, R14, R7
	MOVW R2, (R7)
	MOVWU 8(R3), R2            // slot
	ADD R6, R17, R7
	MOVW R2, (R7)
	ADD $1, R19
initnext:
	ADD $1, R5
	CMP $8, R5
	BLT init

	ADD $112, R9, R7
	VLD1 (R7), [V0.S4, V1.S4]  // states, lanes 0-3 / 4-7
	VLD1 (R16), [V2.S4, V3.S4] // clamped thresholds
	VEOR V4.B16, V4.B16, V4.B16 // toggle counters, lanes 0-3
	VEOR V5.B16, V5.B16, V5.B16 // toggle counters, lanes 4-7

round:
	CBZ R19, walkdone

	// m = unsigned min over the 8 remaining-draw counters.
	MOVWU (R14), R1
	MOVWU 4(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1
	MOVWU 8(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1
	MOVWU 12(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1
	MOVWU 16(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1
	MOVWU 20(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1
	MOVWU 24(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1
	MOVWU 28(R14), R2
	CMP R1, R2
	CSEL LO, R2, R1, R1

	MOVD R1, R4
inner:
	VSHL $13, V0.S4, V6.S4
	VSHL $13, V1.S4, V7.S4
	VEOR V6.B16, V0.B16, V0.B16
	VEOR V7.B16, V1.B16, V1.B16
	VUSHR $17, V0.S4, V6.S4
	VUSHR $17, V1.S4, V7.S4
	VEOR V6.B16, V0.B16, V0.B16
	VEOR V7.B16, V1.B16, V1.B16
	VSHL $5, V0.S4, V6.S4
	VSHL $5, V1.S4, V7.S4
	VEOR V6.B16, V0.B16, V0.B16
	VEOR V7.B16, V1.B16, V1.B16
	VUMIN V2.S4, V0.S4, V6.S4  // min(state, thr-1)
	VUMIN V3.S4, V1.S4, V7.S4
	VCMEQ V6.S4, V0.S4, V6.S4  // == state  <=>  state < thr
	VCMEQ V7.S4, V1.S4, V7.S4
	VSUB V6.S4, V4.S4, V4.S4   // counter -= all-ones mask
	VSUB V7.S4, V5.S4, V5.S4
	SUBS $1, R4
	BNE inner

	// Dump counters so drained lanes can flush scalar-side, then walk
	// all 8 lanes: subtract m, reload any that drained.
	VST1 [V4.S4, V5.S4], (R15)
	MOVD ZR, R5
drain:
	LSL $2, R5, R6
	ADD R6, R14, R7
	MOVWU (R7), R2
	SUB R1, R2, R2
	MOVW R2, (R7)              // rem[j] -= m
	CBNZ R2, drainnext
	ADD R6, R17, R7
	MOVWU (R7), R2             // slot[j]
	ADD R6, R15, R8
	MOVWU (R8), R3             // counter dump
	ADD R2<<2, R11, R2
	MOVWU (R2), R4
	ADD R3, R4
	MOVW R4, (R2)              // counts[slot[j]] += counter[j]
	MOVW ZR, (R8)
	ADD R6, R13, R7
	MOVWU (R7), R2             // cnt[j]
	CBZ R2, lanesent
	SUB $1, R2
	MOVW R2, (R7)
	ADD R6, R12, R7
	MOVWU (R7), R3             // off[j]
	ADD $1, R3, R2
	MOVW R2, (R7)
	ADD R3<<1, R3, R3
	ADD R3<<2, R10, R3         // record at recs + off*12
	MOVWU (R3), R2             // thr
	SUBS $1, R2, R4
	CSEL LO, ZR, R4, R4
	ADD R6, R16, R7
	MOVW R4, (R7)
	MOVWU 4(R3), R2
	ADD R6, R14, R7
	MOVW R2, (R7)
	MOVWU 8(R3), R2
	ADD R6, R17, R7
	MOVW R2, (R7)
	B drainnext
lanesent:
	MOVD $-1, R2
	ADD R6, R14, R7
	MOVW R2, (R7)
	ADD R6, R16, R7
	MOVW ZR, (R7)
	ADD R6, R17, R7
	MOVW ZR, (R7)
	SUB $1, R19
drainnext:
	ADD $1, R5
	CMP $8, R5
	BLT drain

	// Reinstall counters and thresholds with drained lanes updated.
	VLD1 (R15), [V4.S4, V5.S4]
	VLD1 (R16), [V2.S4, V3.S4]
	B round

walkdone:
	ADD $112, R9, R7
	VST1 [V0.S4, V1.S4], (R7)
	RET
