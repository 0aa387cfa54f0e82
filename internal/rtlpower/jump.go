package rtlpower

// The reference estimator's toggle process draws one xorshift32 value
// per net per cycle (see simulateNets). xorshift32 is linear over
// GF(2): each step multiplies the 32-bit state, viewed as a bit vector,
// by a fixed invertible 32×32 bit matrix M (shifts and xors are linear
// maps). Jumping the generator k states ahead is therefore a
// multiplication by M^k, computable in O(32·log k) word operations from
// the precomputed binary powers M^(2^b) — no draw in between is ever
// materialized. This is what lets the stream estimator cut one serial
// RNG chain into independent lanes whose start states are exact, so
// the lane walk enumerates bit-for-bit the same states as the
// sequential reference walk.

// xorshiftStep advances the toggle RNG by one draw. It must stay in
// lockstep with the inline copies in simulateNets, the lane walkers,
// and their assembly forms.
func xorshiftStep(s uint32) uint32 {
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	return s
}

// jumpMats[b] holds M^(2^b) column-major: jumpMats[b][i] is the image
// of the i'th basis state under 2^b xorshift steps. 64 powers cover any
// uint64 jump distance.
var jumpMats [64][32]uint32

func init() {
	for i := 0; i < 32; i++ {
		jumpMats[0][i] = xorshiftStep(1 << i)
	}
	for b := 1; b < 64; b++ {
		for i := 0; i < 32; i++ {
			jumpMats[b][i] = matVec(&jumpMats[b-1], jumpMats[b-1][i])
		}
	}
}

// matVec multiplies a column-major GF(2) matrix by a state vector: the
// xor of the columns selected by the set bits of v.
func matVec(m *[32]uint32, v uint32) uint32 {
	var acc uint32
	for i := 0; i < 32; i++ {
		acc ^= m[i] & -(v >> i & 1)
	}
	return acc
}

// JumpAhead returns the xorshift32 state exactly k draws ahead of
// state, in O(32·log k) word operations. JumpAhead(s, 0) == s, and
// JumpAhead(s, k) equals k applications of xorshiftStep for every k.
func JumpAhead(state uint32, k uint64) uint32 {
	for b := 0; k != 0; b, k = b+1, k>>1 {
		if k&1 != 0 {
			state = matVec(&jumpMats[b], state)
		}
	}
	return state
}
