package rtlpower

import "math/bits"

// The reference estimator's toggle process draws one xorshift32 value
// per net per cycle (see simulateNets). xorshift32 is linear over
// GF(2): each step multiplies the 32-bit state, viewed as a bit vector,
// by a fixed invertible 32×32 bit matrix M (shifts and xors are linear
// maps). Jumping the generator k states ahead is therefore a
// multiplication by M^k, computable in O(log k) table lookups from the
// precomputed binary powers M^(2^b) — no draw in between is ever
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

// jumpTabs[b] holds M^(2^b) as eight nibble tables: jumpTabs[b][n][x]
// is the image of the state x<<(4n) under 2^b xorshift steps, so a
// matrix-vector product is eight lookups and seven xors (tabVec). 64
// powers cover any uint64 jump distance. Tables, not columns, because
// the chunk walker makes one jump per lane per chunk: at 64 lanes a
// product of 32 masked xors took about 14 % of the CPU of a -fast
// rs_base estimate.
var jumpTabs [64][8][16]uint32

func init() {
	// m is M^(2^b) column-major: m[i] is the image of basis state i.
	var m [32]uint32
	for i := range m {
		m[i] = xorshiftStep(1 << i)
	}
	for b := range jumpTabs {
		if b > 0 {
			var sq [32]uint32
			for i := range sq {
				sq[i] = tabVec(&jumpTabs[b-1], m[i])
			}
			m = sq
		}
		for n := range jumpTabs[b] {
			for x := 1; x < 16; x++ {
				low := x & -x
				jumpTabs[b][n][x] = jumpTabs[b][n][x^low] ^ m[4*n+bits.TrailingZeros(uint(low))]
			}
		}
	}
}

// tabVec multiplies the GF(2) matrix held as nibble tables by a state
// vector: the xor of the tables' entries for v's eight nibbles.
func tabVec(t *[8][16]uint32, v uint32) uint32 {
	return t[0][v&15] ^ t[1][v>>4&15] ^ t[2][v>>8&15] ^ t[3][v>>12&15] ^
		t[4][v>>16&15] ^ t[5][v>>20&15] ^ t[6][v>>24&15] ^ t[7][v>>28]
}

// JumpAhead returns the xorshift32 state exactly k draws ahead of
// state, in O(log k) table lookups. JumpAhead(s, 0) == s, and
// JumpAhead(s, k) equals k applications of xorshiftStep for every k.
func JumpAhead(state uint32, k uint64) uint32 {
	for b := 0; k != 0; b, k = b+1, k>>1 {
		if k&1 != 0 {
			state = tabVec(&jumpTabs[b], state)
		}
	}
	return state
}
