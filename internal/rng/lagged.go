package rng

import "math/rand"

// lagged is math/rand's additive lagged-Fibonacci source (Mitchell & Reeds;
// x[n] = x[n-273] + x[n-607] mod 2⁶⁴) with the same register after every
// Seed and the same words from every draw, so a *rand.Rand over it is bit
// for bit one over math/rand's own NewSource(seed). Only seeding differs:
// see Seed. The 607-word register is built at the draw after the first
// lfLazy; until then vec is nil and prefix serves draws from seeded words.
type lagged struct {
	seed      uint32 // normalised: 0 < seed < 2³¹−1
	n         int32  // draws served by prefix
	tap, feed int32
	vec       *[lfLen]int64
}

const (
	lfLen = 607
	lfTap = 273
	lfMod = 1<<31 - 1 // the minimal-standard modulus, a Mersenne prime
	lfMul = 48271     // its multiplier (Park, Miller & Stockmeyer 1993)

	// lfLazy is the number of draws served before the register is built.
	// The prefix lemma (at prefix) allows up to lfTap. Below that it trades
	// two wastes. A stream that outgrows the prefix has computed 2·lfLazy
	// seeded words, and build computes them again among its 607: at 128
	// that is 256 words, ≈ 42 % of a build, paid by every Fig. 4 lane
	// (Perm(2000) outgrows any prefix at once). A stream that builds but
	// draws little has allocated 4.9 KB it hardly reads: a Table I
	// network stream draws a median of 50–77 words in 50 s, about one
	// per HELLO, so at 128 a run builds 8 of its 60 under AODV, 8–25
	// under DYMO and 22–29 under OLSR, where at 32 all 60 built. A metro
	// world's streams mostly stay inside 32 already.
	lfLazy = 128
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
	var l lagged
	l.Seed(1)
	l.build()       // lfCooked is still zero: the un-cooked words
	plain := *l.vec // the draws overwrite every word
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
		lfCooked[i] = l.vec[i] ^ plain[i]
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

// Seed resets the stream to the register math/rand's rngSource.Seed(s)
// sets, whose word i is word(s, i). math/rand walks a chain of 20 + 3·607
// dependent steps x ← 48271·x mod (2³¹−1) and packs three consecutive
// values per word; here every value is an independent product with a
// precomputed power. Exact, because:
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
// replaced by 89482311. Seed drops a built register: the stream is back in
// its prefix, and a later build fills a new one.
func (l *lagged) Seed(s int64) {
	s %= lfMod
	if s < 0 {
		s += lfMod
	}
	if s == 0 {
		s = 89482311
	}
	l.seed, l.n = uint32(s), 0
	l.vec = nil
}

// word returns word i of the register Seed sets (clauses 1 and 2).
func word(x uint64, i int) int64 {
	k := 20 + 3*i
	u := mulmod(x, lfPow[k])<<40 ^ mulmod(x, lfPow[k+1])<<20 ^ mulmod(x, lfPow[k+2])
	return int64(u) ^ lfCooked[i]
}

// Int63 implements rand.Source: the draw with its top bit cleared. It and
// Uint64 each test the register and call step directly, so that step
// inlines into both and a draw on a built register stays one call from
// rand.Rand's interface call; step takes the register the test loaded.
func (l *lagged) Int63() int64 {
	if v := l.vec; v != nil {
		return int64(l.step(v) &^ (1 << 63))
	}
	return int64(l.prefix() &^ (1 << 63))
}

// Uint64 implements rand.Source64.
func (l *lagged) Uint64() uint64 {
	if v := l.vec; v != nil {
		return l.step(v)
	}
	return l.prefix()
}

// step is math/rand's rngSource step on register v, unchanged.
func (l *lagged) step(v *[lfLen]int64) uint64 {
	l.tap--
	if l.tap < 0 {
		l.tap += lfLen
	}
	l.feed--
	if l.feed < 0 {
		l.feed += lfLen
	}
	x := v[l.feed] + v[l.tap]
	v[l.feed] = x
	return uint64(x)
}

// prefix serves a draw before the register exists, by a lemma: draw k of
// math/rand's source (from tap 0, feed 607 − 273) writes feed slot
// (334 − k) mod 607 and reads it and tap slot 607 − k. No earlier draw
// wrote the feed slot (k ≤ 607), and the tap slot was first written by
// draw k − 273, so for k ≤ 273 both still hold seeded words and draw k is
// word(334 − k) + word(607 − k): six products, no register. Past lfLazy
// draws it builds the register and steps.
func (l *lagged) prefix() uint64 {
	if l.n < lfLazy {
		l.n++
		k, x := int(l.n), uint64(l.seed)
		return uint64(word(x, lfLen-lfTap-k) + word(x, lfLen-k))
	}
	l.build()
	return l.step(l.vec)
}

// build fills the register exactly as math/rand's Seed does and replays the
// l.n draws prefix served, which leaves it as math/rand's after as many
// draws. The fill is word written out, into a local array: a call per word
// (word is past the inliner's budget) costs ≈ 30 % more a build.
func (l *lagged) build() {
	v, x := new([lfLen]int64), uint64(l.seed)
	for i := range v {
		k := 20 + 3*i
		u := mulmod(x, lfPow[k])<<40 ^ mulmod(x, lfPow[k+1])<<20 ^ mulmod(x, lfPow[k+2])
		v[i] = int64(u) ^ lfCooked[i]
	}
	l.vec, l.tap, l.feed = v, 0, lfLen-lfTap
	for range l.n {
		l.step(v)
	}
}
