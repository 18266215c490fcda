package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cavenet/internal/scenario"
)

// refKey is the reference derivation: the hex Spec.Hash of the run's
// full spec (seed and protocol set, as RunCell builds it), hashed again
// with the protocol, seed, checked flag and code version.
func refKey(t *testing.T, grid *scenario.Grid, j int, p scenario.Protocol) string {
	t.Helper()
	run, err := grid.CellSpec(j)
	if err != nil {
		t.Fatal(err)
	}
	run.Protocol = p
	specHash, err := run.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b := []byte(specHash)
	b = append(append(b, '|'), p...)
	b = strconv.AppendInt(append(b, '|'), run.Seed, 10)
	b = strconv.AppendBool(append(b, '|'), grid.Checked)
	b = append(append(b, '|'), codeVersion...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCacheKeyPartition: the keys runKeys derives from one digest per
// scenario split the runs of many grids into exactly the classes the
// reference derivation does — two runs share a key if and only if they
// share a full spec hash. The grids overlap on purpose (the unshrunk
// catalogue and its 40-vehicle rescale share downtown, two grids share
// their first scenario), so both directions of the bijection are tested.
func TestCacheKeyPartition(t *testing.T) {
	all := scenario.Names() // heavy entries included
	configs := map[string]scenario.SweepConfig{
		"catalogue":       {Scenarios: all},
		"shrunk":          {Scenarios: all, Shrunk: true},
		"time 6":          {Scenarios: all, OverrideTimeSec: 6},
		"time 20":         {Scenarios: all, OverrideTimeSec: 20},
		"nodes 40":        {Scenarios: all, OverrideNodes: 40},
		"checked":         {Scenarios: all, Checked: true},
		"highway, sparse": {Scenarios: []string{"highway", "sparse"}},
		"highway, churn":  {Scenarios: []string{"highway", "churn"}},
	}
	byRef := map[string][32]byte{}
	byKey := map[[32]byte]string{}
	runs := 0
	for name, cfg := range configs {
		cfg.Trials, cfg.Seed = 2, 1
		grid, err := scenario.NewGrid(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys, err := runKeys(grid)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		np := len(grid.Protocols)
		for j := 0; j < grid.Cells(); j++ {
			for pi, p := range grid.Protocols {
				ref, key := refKey(t, grid, j, p), keys[j*np+pi]
				if k, ok := byRef[ref]; ok && k != key {
					t.Fatalf("%s cell %d %s: one run spec, two keys", name, j, p)
				}
				if r, ok := byKey[key]; ok && r != ref {
					t.Fatalf("%s cell %d %s: one key, two run specs", name, j, p)
				}
				byRef[ref], byKey[key] = key, ref
				runs++
			}
		}
	}
	t.Logf("%d runs, %d distinct keys", runs, len(byKey))
	if len(byKey) == runs {
		t.Fatal("no two grids share a run: the partition is not tested across grids")
	}
}

// submitCached submits body, waits for it and reports how many of
// its runs were served from the cache.
func submitCached(t *testing.T, ts *httptest.Server, body string) int {
	t.Helper()
	sub := submitSweep(t, ts, body)
	followStream(t, ts, sub.ID)
	return sub.CachedRuns
}

// smallGrid is one quick, short highway cell; the placeholders are the
// protocol list and the checked flag.
const smallGrid = `{"scenarios":["highway"],"protocols":[%P],"seed":1,"quick":true,"checked":%C,"overrides":{"timeSec":6}}`

func small(protocols, checked string) string {
	return strings.NewReplacer("%P", protocols, "%C", checked).Replace(smallGrid)
}

// TestCheckedRunsKeySeparately: a checked run carries violation counts
// an unchecked one does not, so the two never share a cache entry.
func TestCheckedRunsKeySeparately(t *testing.T) {
	_, ts := newTestServer(t)
	if n := submitCached(t, ts, small(`"aodv"`, "false")); n != 0 {
		t.Fatalf("cold submit: %d cached runs", n)
	}
	if n := submitCached(t, ts, small(`"aodv"`, "true")); n != 0 {
		t.Fatalf("checked submit after an unchecked one: %d cached runs, want 0", n)
	}
	if n := submitCached(t, ts, small(`"aodv"`, "true")); n != 1 {
		t.Fatalf("checked resubmit: %d cached runs, want 1", n)
	}
}

// TestProtocolAxisMissesCache: changing only the protocol axis names
// other runs, even though the scenario digest leaves the protocol out.
func TestProtocolAxisMissesCache(t *testing.T) {
	_, ts := newTestServer(t)
	submitCached(t, ts, small(`"aodv"`, "false"))
	if n := submitCached(t, ts, small(`"dymo"`, "false")); n != 0 {
		t.Fatalf("dymo after aodv: %d cached runs, want 0", n)
	}
	if n := submitCached(t, ts, small(`"aodv","dymo","olsr"`, "false")); n != 2 {
		t.Fatalf("aodv,dymo,olsr after aodv and dymo: %d cached runs, want 2", n)
	}
}

// TestWarmSubmitAllocs pins the allocations of one warm submit of the
// benchmark's quick grid (11 scenarios × 4 protocols, all 44 runs
// cached), request and response included: per-run spec work coming back
// shows here first. Keying each run by its own Spec.Hash cost 877
// allocations per submit; one digest per scenario cost 344, of which a
// fresh update channel per cached result and a spec clone per scenario
// were 117. Without them a submit cost 227, of which NewGrid's four spec
// clones per scenario (a fifth for the heavy check) were 92. With one
// clone per scenario a submit costs 135, and the bound leaves about 10 %
// above that.
func TestWarmSubmitAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("fills the cache with 44 runs; -race allocates on its own")
	}
	srv := New(Config{Workers: 2})
	h := srv.Handler()
	const grid = `{"protocols":["aodv","olsr","dymo","gpsr"],"trials":1,"seed":5,"quick":true,"overrides":{"timeSec":6}}`
	submit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(grid)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	submit()
	stream := httptest.NewRecorder()
	h.ServeHTTP(stream, httptest.NewRequest(http.MethodGet, "/sweeps/s1/stream", nil))
	if !strings.Contains(stream.Body.String(), `"completed":44`) {
		t.Fatalf("cold fill did not complete 44 runs:\n%s", stream.Body)
	}
	if rec := submit(); !strings.Contains(rec.Body.String(), `"cachedRuns": 44`) {
		t.Fatalf("warm submit not fully cached: %s", rec.Body)
	}
	const bound = 150
	if got := testing.AllocsPerRun(20, func() { submit() }); got > bound {
		t.Fatalf("a warm submit allocates %.0f times, bound %d", got, bound)
	}
}
