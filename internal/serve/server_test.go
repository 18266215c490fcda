package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cavenet/internal/scenario"
)

// testGrid is the sweep every test submits: the same grid the CLI golden
// test locks (scenario_sweep.golden), so byte-level comparisons are
// meaningful across the whole tool.
const testGrid = `{"scenarios":["highway","sparse"],"protocols":["aodv","dymo"],"trials":2,"seed":1,"quick":true}`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 2, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func submitSweep(t *testing.T, ts *httptest.Server, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// followStream reads the NDJSON stream to its done line — the
// deterministic way to wait for a sweep.
func followStream(t *testing.T, ts *httptest.Server, id string) []StreamEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.Type == "done" {
			return events
		}
	}
	t.Fatalf("stream ended without a done line (err=%v)", sc.Err())
	return nil
}

func fetchArtifact(t *testing.T, ts *httptest.Server, id, format string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/artifact?format=" + format)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScenarioCatalogue(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []catalogueEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(scenario.Names()) {
		t.Fatalf("catalogue lists %d scenarios, registry has %d", len(entries), len(scenario.Names()))
	}
	for _, e := range entries {
		if len(e.SpecHash) != 64 {
			t.Errorf("scenario %s: spec hash %q is not a sha256 digest", e.Name, e.SpecHash)
		}
	}
}

// TestSweepLifecycle drives one grid through submit → stream → status →
// artifact, and checks the artifact matches the CLI renderer byte for
// byte.
func TestSweepLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	sub := submitSweep(t, ts, testGrid)
	if sub.Total != 8 || sub.Cells != 4 {
		t.Fatalf("submit accounting: %+v", sub)
	}
	events := followStream(t, ts, sub.ID)
	done := events[len(events)-1]
	if done.Error != "" || done.Completed != 8 || done.Total != 8 {
		t.Fatalf("done line: %+v", done)
	}
	results := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "result" || ev.Result == nil {
			t.Fatalf("unexpected stream event: %+v", ev)
		}
		results++
	}
	if results != 8 {
		t.Fatalf("streamed %d results, want 8", results)
	}

	var st Status
	resp, err := http.Get(ts.URL + "/sweeps/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Completed != 8 || st.Error != "" {
		t.Fatalf("status after done: %+v", st)
	}

	got := fetchArtifact(t, ts, sub.ID, "csv")
	rows, err := scenario.Sweep(scenario.SweepConfig{
		Scenarios: []string{"highway", "sparse"},
		Protocols: []scenario.Protocol{scenario.AODV, scenario.DYMO},
		Trials:    2,
		Seed:      1,
		Shrunk:    true,
		Checked:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := scenario.WriteSweepCSV(&want, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("artifact differs from the CLI renderer:\n--- serve ---\n%s--- cli ---\n%s", got, want.Bytes())
	}
}

// TestCacheHit is the acceptance gate: the same grid submitted twice is
// served wholly from cache — zero new kernel runs — and the artifact is
// byte-identical.
func TestCacheHit(t *testing.T) {
	srv, ts := newTestServer(t)
	first := submitSweep(t, ts, testGrid)
	followStream(t, ts, first.ID)
	firstArtifact := fetchArtifact(t, ts, first.ID, "csv")
	jobsAfterFirst := srv.SnapshotMetrics().JobsDone

	second := submitSweep(t, ts, testGrid)
	if second.CachedRuns != second.Total || second.FreshRuns != 0 {
		t.Fatalf("resubmission not fully cached: %+v", second)
	}
	events := followStream(t, ts, second.ID)
	for _, ev := range events[:len(events)-1] {
		if !ev.Cached {
			t.Fatalf("resubmitted run not served from cache: %+v", ev)
		}
	}
	m := srv.SnapshotMetrics()
	if m.JobsDone != jobsAfterFirst {
		t.Fatalf("resubmission ran %d fresh jobs", m.JobsDone-jobsAfterFirst)
	}
	if m.CacheHits == 0 || m.CacheMisses == 0 {
		t.Fatalf("cache counters did not move: %+v", m)
	}
	secondArtifact := fetchArtifact(t, ts, second.ID, "csv")
	if !bytes.Equal(firstArtifact, secondArtifact) {
		t.Fatal("cached artifact differs from the freshly computed one")
	}

	// A different seed must not hit the cache.
	third := submitSweep(t, ts, strings.Replace(testGrid, `"seed":1`, `"seed":2`, 1))
	if third.CachedRuns != 0 {
		t.Fatalf("different seed hit the cache: %+v", third)
	}
	followStream(t, ts, third.ID)
}

// TestMalformedRequests: every bad input is a 4xx response, never a
// process exit, and never a queued job.
func TestMalformedRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad json", "POST", "/sweeps", `{"scenarios":`, http.StatusBadRequest},
		{"unknown field", "POST", "/sweeps", `{"scenario":["highway"]}`, http.StatusBadRequest},
		{"unknown scenario", "POST", "/sweeps", `{"scenarios":["motorway9"]}`, http.StatusBadRequest},
		{"unknown protocol", "POST", "/sweeps", `{"protocols":["ospf"]}`, http.StatusBadRequest},
		{"negative trials", "POST", "/sweeps", `{"scenarios":["highway"],"trials":-3}`, http.StatusBadRequest},
		// A grid beyond the run bound is refused before anything is
		// allocated per cell (2^40 cells would exhaust memory).
		{"oversized grid", "POST", "/sweeps", `{"scenarios":["highway"],"trials":1099511627776}`, http.StatusBadRequest},
		{"oversized catalogue grid", "POST", "/sweeps", `{"trials":100000}`, http.StatusBadRequest},
		{"negative time override", "POST", "/sweeps", `{"scenarios":["highway"],"overrides":{"timeSec":-5}}`, http.StatusBadRequest},
		{"negative nodes override", "POST", "/sweeps", `{"scenarios":["highway"],"overrides":{"nodes":-3}}`, http.StatusBadRequest},
		{"unknown sweep status", "GET", "/sweeps/s999", "", http.StatusNotFound},
		{"unknown sweep artifact", "GET", "/sweeps/s999/artifact", "", http.StatusNotFound},
		{"unknown sweep stream", "GET", "/sweeps/s999/stream", "", http.StatusNotFound},
		{"bad metrics format", "GET", "/metrics?format=xml", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var msg map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
				t.Fatalf("error body is not the JSON error shape: %v", err)
			}
			if msg["error"] == "" {
				t.Fatal("empty error message")
			}
		})
	}
	if q, r := srv.gate.counts(); q != 0 || r != 0 {
		t.Fatalf("malformed requests left jobs in the gate: queued=%d running=%d", q, r)
	}
}

// TestArtifactFormat rejects unknown formats up front and keeps CSV and
// JSON apart.
func TestArtifactFormat(t *testing.T) {
	_, ts := newTestServer(t)
	sub := submitSweep(t, ts, testGrid)
	followStream(t, ts, sub.ID)
	resp, err := http.Get(ts.URL + "/sweeps/" + sub.ID + "/artifact?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
	var rows []scenario.SweepRow
	if err := json.Unmarshal(fetchArtifact(t, ts, sub.ID, "json"), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("JSON artifact has %d rows, want 4", len(rows))
	}
}

// TestQueueFull: a submission that does not fit is rejected whole with
// 503 and reserves nothing.
func TestQueueFull(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(testGrid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if q, r := srv.gate.counts(); q != 0 || r != 0 {
		t.Fatalf("rejected sweep left reservations: queued=%d running=%d", q, r)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	sub := submitSweep(t, ts, testGrid)
	followStream(t, ts, sub.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, counter := range []string{
		"cavenet_jobs_queued", "cavenet_jobs_running", "cavenet_jobs_done",
		"cavenet_cache_hits", "cavenet_cache_misses", "cavenet_sim_seconds_served",
	} {
		if !strings.Contains(text, counter+" ") {
			t.Errorf("metrics text missing %s:\n%s", counter, text)
		}
	}
	if !strings.Contains(text, "cavenet_jobs_done 4") {
		t.Errorf("metrics should report 4 finished cell jobs:\n%s", text)
	}

	var m Metrics
	resp2, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SimSecondsServed <= 0 {
		t.Errorf("sim seconds served not accounted: %+v", m)
	}
	if m.CodeVersion == "" {
		t.Error("metrics omit the code version")
	}
}

// A cached result is a statement about one architecture and one Go
// release, so the cache key's code version names both.
func TestCodeVersionNamesArchAndRelease(t *testing.T) {
	v := CodeVersion()
	if !strings.HasSuffix(v, "/"+runtime.GOARCH+"/"+runtime.Version()) {
		t.Fatalf("CodeVersion() = %q, want it to end in /%s/%s", v, runtime.GOARCH, runtime.Version())
	}
	if strings.HasPrefix(v, "/") {
		t.Fatalf("CodeVersion() = %q has no build revision", v)
	}
}

// TestDrainRejectsNewWork: after Drain starts, submissions are refused
// but finished sweeps remain readable.
func TestDrainRejectsNewWork(t *testing.T) {
	srv, ts := newTestServer(t)
	sub := submitSweep(t, ts, testGrid)
	followStream(t, ts, sub.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with idle queue: %v", err)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(testGrid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	if got := fetchArtifact(t, ts, sub.ID, "csv"); len(got) == 0 {
		t.Fatal("artifact unreadable after drain")
	}
}

// TestStreamFollowsLiveRun opens the stream before the sweep finishes
// and still sees every result plus the done line.
func TestStreamFollowsLiveRun(t *testing.T) {
	_, ts := newTestServer(t)
	sub := submitSweep(t, ts, testGrid)
	// Open immediately; the sweep is almost certainly still running.
	events := followStream(t, ts, sub.ID)
	if events[len(events)-1].Completed != sub.Total {
		t.Fatalf("live stream completed %d of %d", events[len(events)-1].Completed, sub.Total)
	}
}
