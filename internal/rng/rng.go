// Package rng provides named, deterministic random-number streams.
//
// Every stochastic component in CAVENET (the NaS slowdown rule, MAC backoff,
// protocol jitter, Monte-Carlo trials) draws from its own stream derived
// from a single scenario seed and a component name. Two runs with the same
// seed are therefore bit-identical, and changing the draw order inside one
// component cannot perturb any other component — the property that makes
// ablation experiments comparable.
package rng

import "math/rand"

// Source derives independent streams from a root seed.
type Source struct {
	seed int64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed}
}

// Seed reports the root seed.
func (s *Source) Seed() int64 { return s.seed }

// Stream returns a deterministic *rand.Rand for the given component name.
// The same (seed, name) pair always yields the same sequence.
func (s *Source) Stream(name string) *rand.Rand {
	h := uint64(14695981039346656037) // FNV-1a, 64-bit
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	const golden = int64(0x4F1BBCDCBFA53E0B) // odd 63-bit mixing constant
	return New(int64(h) ^ (s.seed * golden))
}

// Fork derives a child Source, e.g. one per Monte-Carlo trial. The child
// seed is a splitmix64-style mix of (seed, trial), so distinct
// (seed, trial) pairs map to distinct, decorrelated children — the earlier
// affine derivation seed*1_000_003+trial aliased (1, 1_000_003) with
// (2, 0), silently correlating trials across large sweeps. Forks nest:
// src.Fork(i).Fork(j) is a well-mixed stream for grid cell (i, j).
func (s *Source) Fork(trial int) *Source {
	h := splitmix64(uint64(s.seed))
	h = splitmix64(h + uint64(trial))
	return &Source{seed: int64(h)}
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix generator: a
// bijective avalanche mix whose outputs pass BigCrush even on sequential
// inputs, which is exactly the trial-index shape Fork feeds it.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
