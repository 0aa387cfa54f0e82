package plan

// The 6-bit signed constant encoding shared by register-immediate
// branch compares and immediate-form TIE instructions: both reuse the
// 6-bit Rt register field to carry a small constant, decoded by the
// same generated immediate-generation logic. This file is the single
// definition of that encoding — the assembler encodes with it, the
// simulator and plan decode with it, and xlint validates against it.
// (It used to be spelled out independently in asm, iss and xlint; the
// copies drifting apart is how the phantom-interlock bug of PR 1 could
// have recurred.)
const (
	// Imm6Bits is the width of the constant field (the Rt register
	// field).
	Imm6Bits = 6
	// MinImm6 and MaxImm6 bound the encodable signed constant.
	MinImm6 = -(1 << (Imm6Bits - 1))    // -32
	MaxImm6 = (1 << (Imm6Bits - 1)) - 1 // 31
)

// DecodeImm6 decodes the 6-bit signed constant carried in an Rt field
// (sign-extend bit 5 through bit 31).
func DecodeImm6(rt uint8) int32 {
	return int32(int8(rt<<(8-Imm6Bits))) >> (8 - Imm6Bits)
}

// EncodeImm6 encodes v into an Rt field, reporting false when v is
// outside [MinImm6, MaxImm6].
func EncodeImm6(v int64) (uint8, bool) {
	if v < MinImm6 || v > MaxImm6 {
		return 0, false
	}
	return uint8(v) & (1<<Imm6Bits - 1), true
}
