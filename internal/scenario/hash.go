package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Hash returns the canonical content hash of the spec: a SHA-256 over
// the deterministic JSON encoding of the fully normalized spec. Two
// specs that normalize to the same workload — regardless of which
// defaults were spelled out — hash identically, and any material change
// (a flow, a seed, a fault clause, a protocol) changes the hash.
//
// Runs are deterministic (the PR 2 engine contract), so the hash
// identifies the *result* of a run, not just its input. The experiment
// service publishes it per catalogue entry; its result cache keys on the
// equivalent Grid.ScenarioDigest. The encoding walks only exported
// struct fields in declaration order over slices and plain values (no
// maps anywhere in Spec), so it is reproducible within one build;
// cross-build stability is the code-version component's job.
func (s Spec) Hash() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", fmt.Errorf("scenario: hashing unnormalizable spec: %w", err)
	}
	b, err := json.Marshal(n)
	if err != nil {
		return "", fmt.Errorf("scenario: encoding spec %s: %w", n.Name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ScenarioDigest is the SHA-256 of the canonical JSON of scenario i's
// stored spec with Seed and Protocol cleared: what every run of the
// scenario shares. (digest, protocol, seed) names the same run spec that
// Spec.Hash of that spec names, because NewGrid stores the spec
// normalized, a run changes only Seed (CellSpec) and Protocol (RunCell)
// without re-normalizing, normalize only defaults an empty Protocol, and
// no default depends on the seed. Computed on demand, never by NewGrid.
func (g *Grid) ScenarioDigest(i int) ([32]byte, error) {
	s := g.specs[i]
	s.Seed, s.Protocol = 0, ""
	b, err := json.Marshal(s)
	if err != nil {
		return [32]byte{}, fmt.Errorf("scenario: encoding spec %s: %w", s.Name, err)
	}
	return sha256.Sum256(b), nil
}
