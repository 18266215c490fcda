// Package serve is the CAVENET experiment service: a long-running HTTP
// daemon that exposes the scenario catalogue, accepts (scenario ×
// protocol × seed) sweep grids, schedules their cells on the
// deterministic parallel engine behind a bounded job queue, streams
// per-cell results as NDJSON while a grid runs, and serves finished
// artifacts in the same CSV/JSON dialect the CLI emits.
//
// Because runs are deterministic and specs are normalized, a
// (scenario digest, protocol, seed, checked, code version) tuple fully
// determines a cell's result — so the service keeps a content-addressed
// result cache and answers repeated cells with a lookup instead of a
// simulation. Cached and freshly computed responses are byte-identical
// by construction (same TrialResult values through the same renderer);
// the differential tests pin it.
package serve

import (
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"cavenet/internal/scenario"
)

// codeVersion identifies the running build in cache keys: results are
// only valid as long as the simulator that produced them. Within one
// process the version is constant — the in-memory cache can never serve
// a stale build's result — but keeping it in the key preserves the
// contract for persistent backends. The source revision alone does not
// pin a result: the compiler fuses floating-point multiply-adds on some
// architectures, and math/rand's Rand methods and package math ship with
// the Go release, so GOARCH and runtime.Version() are part of it too.
var codeVersion = buildRevision() + "/" + runtime.GOARCH + "/" + runtime.Version()

// buildRevision is the VCS revision (plus "+dirty") or module version
// stamped into the binary, "dev" when there is none.
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			return bi.Main.Version
		}
	}
	return "dev"
}

// CodeVersion reports the build identity mixed into every cache key.
func CodeVersion() string { return codeVersion }

// cacheKey derives the content address of one (cell, protocol) run from
// its scenario's digest (Grid.ScenarioDigest, which leaves out the seed
// and the protocol), the protocol, the cell seed and whether the run is
// checked: checked runs key separately from unchecked ones (only they
// carry invariant-violation counts).
func cacheKey(digest [32]byte, p scenario.Protocol, seed int64, checked bool) [32]byte {
	// The preimage "digest|protocol|seed|checked|codeVersion" is built on
	// the stack: every submission derives one key per (cell, protocol).
	var buf [192]byte
	b := append(buf[:0], digest[:]...)
	b = append(append(b, '|'), p...)
	b = strconv.AppendInt(append(b, '|'), seed, 10)
	b = strconv.AppendBool(append(b, '|'), checked)
	b = append(append(b, '|'), codeVersion...)
	return sha256.Sum256(b)
}

// runKeys derives the cache key of every run of grid, cell-major
// (keys[j*len(grid.Protocols)+pi]), hashing each scenario's spec once.
func runKeys(grid *scenario.Grid) ([][32]byte, error) {
	np := len(grid.Protocols)
	keys := make([][32]byte, grid.Cells()*np)
	var digest [32]byte
	for j := 0; j < grid.Cells(); j++ {
		if j%grid.Trials == 0 {
			var err error
			if digest, err = grid.ScenarioDigest(j / grid.Trials); err != nil {
				return nil, err
			}
		}
		seed := grid.CellSeed(j)
		for pi, p := range grid.Protocols {
			keys[j*np+pi] = cacheKey(digest, p, seed, grid.Checked)
		}
	}
	return keys, nil
}

// resultCache is the in-memory content-addressed result store. Entries
// are immutable once written: a key collision can only re-store the
// identical value (determinism), so Put never compares.
type resultCache struct {
	mu sync.RWMutex
	m  map[[32]byte]scenario.TrialResult
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[[32]byte]scenario.TrialResult)}
}

func (c *resultCache) get(key [32]byte) (scenario.TrialResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *resultCache) put(key [32]byte, r scenario.TrialResult) {
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
}

func (c *resultCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
