package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// mismatch draws n mixed calls from got and want — every *rand.Rand method
// production uses, plus the raw words — and returns the first call whose
// results differ, or -1.
func mismatch(got, want *rand.Rand, n int) int {
	for i := 0; i < n; i++ {
		var same bool
		switch i % 8 {
		case 0:
			same = got.Int63() == want.Int63()
		case 1:
			same = got.Uint64() == want.Uint64()
		case 2:
			same = got.Intn(1+i) == want.Intn(1+i)
		case 3:
			bound := int64(1)<<40 + int64(i)
			same = got.Int63n(bound) == want.Int63n(bound)
		case 4:
			same = math.Float64bits(got.Float64()) == math.Float64bits(want.Float64())
		case 5:
			same = slices.Equal(got.Perm(1+i%9), want.Perm(1+i%9))
		case 6:
			same = math.Float64bits(got.ExpFloat64()) == math.Float64bits(want.ExpFloat64())
		case 7:
			same = math.Float64bits(got.NormFloat64()) == math.Float64bits(want.NormFloat64())
		}
		if !same {
			return i
		}
	}
	return -1
}

// The differential every lemma clause of seed answers to: 1 300 mixed calls
// run past two wraps of the 607-word register, so the seeded words and the
// words the feedback writes back are both read.
func TestStreamMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, m - 1, m, -m, m + 1, -m - 1, 2 * m, -2 * m, m << 32, -m << 32,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311, -89482311,
	}
	pick := rand.New(rand.NewSource(2026))
	for range 500 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, s := range seeds {
		if i := mismatch(New(s), rand.New(rand.NewSource(s)), 1300); i >= 0 {
			t.Fatalf("seed %d: call %d differs from math/rand", s, i)
		}
	}
}

// Seed re-seeds to the same register a fresh New builds, from inside the
// prefix, at the build and from a register built and wrapped.
func TestSeedResetsRegister(t *testing.T) {
	for _, n := range []int{0, 1, lfLazy - 1, lfLazy, lfLazy + 1, lfTap, lfTap + 1, lfLen, 1300} {
		r := New(5)
		for range n {
			r.Uint64()
		}
		r.Seed(-12345)
		if i := mismatch(r, rand.New(rand.NewSource(-12345)), 1300); i >= 0 {
			t.Fatalf("Seed after %d draws: call %d differs from math/rand", n, i)
		}
	}
}

// Stream's inline hash is FNV-1a: every stream is the one the hash/fnv
// derivation gave.
func TestStreamHashIsFNV1a(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, math.MaxInt64} {
		for _, name := range []string{"", "node/0", "mac/12", "shadowing", "slowdown/λ"} {
			h := fnv.New64a()
			h.Write([]byte(name))
			want := rand.New(rand.NewSource(int64(h.Sum64()) ^ seed*0x4F1BBCDCBFA53E0B))
			if i := mismatch(NewSource(seed).Stream(name), want, 700); i >= 0 {
				t.Fatalf("seed %d name %q: call %d differs", seed, name, i)
			}
		}
	}
}

// A stream is a header until its register is built: a seed, a count and
// two pointers beside a nil register pointer (24 B on 64-bit, 20 on 32-bit).
func TestLaggedHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(lagged{}); got > 32 {
		t.Fatalf("lagged is %d B, want at most 32", got)
	}
}

// The prefix allocates nothing; the draw that outgrows it allocates the
// register, once.
func TestRegisterAllocatedAtDrawAfterPrefix(t *testing.T) {
	draws := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			r := New(9)
			for range n {
				r.Uint64()
			}
		})
	}
	fresh, prefix, built := draws(0), draws(lfLazy), draws(lfLazy+1)
	if prefix != fresh {
		t.Errorf("New + %d draws: %v allocs, New alone %v", lfLazy, prefix, fresh)
	}
	if built != fresh+1 {
		t.Errorf("New + %d draws: %v allocs, want New's %v + 1", lfLazy+1, built, fresh)
	}
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Add(int64(1<<31-1), uint16(1))
	// For these seeds mismatch's call 21 draws the 32nd and 33rd words, and
	// seed 0's call 184 the 274th: n stops on either side of the build and
	// of the prefix lemma's bound.
	f.Add(int64(1), uint16(21))
	f.Add(int64(1), uint16(22))
	f.Add(int64(7), uint16(22))
	f.Add(int64(0), uint16(184))
	f.Add(int64(0), uint16(185))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if i := mismatch(New(seed), rand.New(rand.NewSource(seed)), int(n)); i >= 0 {
			t.Fatalf("seed %d: call %d differs from math/rand", seed, i)
		}
	})
}

var (
	sink      *rand.Rand
	sinkFloat float64
)

// BenchmarkStream builds one seeded *rand.Rand per op: the lagged source
// against math/rand's own, whose seeding walks the 1 841-step chain. light,
// outgrow and steady are the three regimes of the lazy register: a stream
// that stays in the prefix (a metro2k network stream's 8 draws), one that
// builds at once (one Fig. 4 lane's Perm(2000)), and a draw on a built
// register.
func BenchmarkStream(b *testing.B) {
	b.Run("lagged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = New(int64(i))
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = rand.New(rand.NewSource(int64(i)))
		}
	})
	b.Run("light", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(int64(i))
			for range 8 {
				r.Uint64()
			}
			sink = r
		}
	})
	b.Run("outgrow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(int64(i))
			r.Perm(2000)
			sink = r
		}
	})
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		r := New(1)
		r.Perm(2000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFloat = r.Float64()
		}
	})
}
