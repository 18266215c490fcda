package rng

import "math/rand"

// lagged is math/rand's additive lagged-Fibonacci source (Mitchell & Reeds;
// x[n] = x[n-273] + x[n-607] mod 2⁶⁴) with the same register after every
// Seed and the same words from every draw, so a *rand.Rand over it is bit
// for bit one over math/rand's own NewSource(seed). Only seeding differs:
// see Seed.
type lagged struct {
	tap, feed int32 // int32 keeps the register at 4 864 B
	vec       [lfLen]int64
}

const (
	lfLen = 607
	lfTap = 273
	lfMod = 1<<31 - 1 // the minimal-standard modulus, a Mersenne prime
	lfMul = 48271     // its multiplier (Park, Miller & Stockmeyer 1993)
)

var (
	// lfPow[k] = 48271^(k+1) mod (2³¹−1): chain value k+1 of a seed s is
	// s·lfPow[k]. The first 20 are the values math/rand discards.
	lfPow [20 + 3*lfLen]uint64
	// lfCooked is math/rand's rngCooked table, recovered in init.
	lfCooked [lfLen]int64
)

func init() {
	p := uint64(1)
	for k := range lfPow {
		p = mulmod(p, lfMul)
		lfPow[k] = p
	}
	// After 607 draws every register word is an output; undoing the 607
	// steps gives math/rand's seeded register for seed 1, and that is its
	// un-cooked words XOR the cooked ones. math/rand stays the one
	// definition of the table.
	var plain lagged
	plain.Seed(1) // lfCooked is still zero: the un-cooked words
	l := plain    // the pointers after seeding; the draws overwrite every word
	ref := rand.NewSource(1).(rand.Source64)
	for range lfLen {
		l.Uint64() // moves the pointers as the draw did
		l.vec[l.feed] = int64(ref.Uint64())
	}
	for range lfLen {
		l.vec[l.feed] -= l.vec[l.tap]
		l.tap, l.feed = (l.tap+1)%lfLen, (l.feed+1)%lfLen
	}
	for i := range lfCooked {
		lfCooked[i] = l.vec[i] ^ plain.vec[i]
	}
}

// New returns a *rand.Rand whose draws equal those of one over math/rand's
// NewSource(seed), at a fraction of the seeding cost. Production code
// builds every *rand.Rand through New or Source.Stream.
func New(seed int64) *rand.Rand {
	l := new(lagged)
	l.Seed(seed)
	return rand.New(l)
}

// mulmod returns a·b mod (2³¹−1) for 0 < a, b < 2³¹−1: one 62-bit product
// and a Mersenne fold, since 2³¹ ≡ 1.
func mulmod(a, b uint64) uint64 {
	t := a * b
	r := t&lfMod + t>>31
	if r >= lfMod {
		r -= lfMod
	}
	return r
}

// Seed sets the register math/rand's rngSource.Seed(s) sets. math/rand
// walks a chain of 20 + 3·607 dependent steps x ← 48271·x mod (2³¹−1) and
// packs three consecutive values per word; here every value is an
// independent product with a precomputed power. Exact, because:
//
//  1. math/rand's seedrand is Schrage's method (ACM TOMS 5(2), 1979) for
//     48271·x mod (2³¹−1), exact for 0 < x < 2³¹−1; by induction chain
//     value k is s·48271^k mod (2³¹−1), and word i packs values 21+3i,
//     22+3i and 23+3i — lfPow[20+3i], lfPow[21+3i], lfPow[22+3i].
//  2. Two factors below 2³¹−1 multiply to at most 2⁶²−2³³+4, so the fold
//     (t & m) + (t >> 31) is below 2m and one subtraction reduces it; the
//     result is never 0, because m is prime and divides neither factor.
//  3. A draw is invertible (vec[feed] -= vec[tap], pointers walked back),
//     and after 607 draws the register holds only outputs, so init
//     recovers rngCooked from math/rand's own seed-1 stream.
//
// s is normalised as math/rand does it: mod 2³¹−1, negatives wrapped, 0
// replaced by 89482311.
func (l *lagged) Seed(s int64) {
	l.tap, l.feed = 0, lfLen-lfTap
	s %= lfMod
	if s < 0 {
		s += lfMod
	}
	if s == 0 {
		s = 89482311
	}
	x := uint64(s)
	for i := range l.vec {
		k := 20 + 3*i
		u := mulmod(x, lfPow[k])<<40 ^ mulmod(x, lfPow[k+1])<<20 ^ mulmod(x, lfPow[k+2])
		l.vec[i] = int64(u) ^ lfCooked[i]
	}
}

// Int63 implements rand.Source: the draw with its top bit cleared.
func (l *lagged) Int63() int64 { return int64(l.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64: math/rand's rngSource step, unchanged.
func (l *lagged) Uint64() uint64 {
	l.tap--
	if l.tap < 0 {
		l.tap += lfLen
	}
	l.feed--
	if l.feed < 0 {
		l.feed += lfLen
	}
	x := l.vec[l.feed] + l.vec[l.tap]
	l.vec[l.feed] = x
	return uint64(x)
}
