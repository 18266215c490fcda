package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"cavenet/internal/exp"
	"cavenet/internal/scenario"
)

var errNotFinished = errors.New("serve: sweep not finished")

// Config tunes a Server. The zero value is usable: every core runs
// jobs, the queue holds 256 cells, and non-streaming requests time out
// after 30 seconds.
type Config struct {
	// Workers caps concurrently running simulation jobs across all
	// sweeps; <= 0 uses every core (the exp.Runner default).
	Workers int
	// QueueDepth bounds admitted-but-unfinished cell jobs; a submission
	// that would exceed it is rejected with 503. Default 256.
	QueueDepth int
	// RequestTimeout bounds non-streaming request handling. Default 30s.
	// The NDJSON stream endpoint is exempt: it lives as long as the sweep
	// and the client connection.
	RequestTimeout time.Duration
	// Log receives request and job lines; nil discards them.
	Log *log.Logger
}

// Server is the experiment service: the scenario catalogue, a bounded
// sweep queue over the deterministic engine, a content-addressed result
// cache, NDJSON result streams, and CLI-identical artifacts.
type Server struct {
	cfg   Config
	gate  *jobGate
	cache *resultCache
	log   *log.Logger

	mu     sync.Mutex
	sweeps map[string]*sweepRun
	order  []string // insertion order, for the sweep index
	nextID int

	met struct {
		sync.Mutex
		jobsDone         uint64
		cacheHits        uint64
		cacheMisses      uint64
		simSecondsServed float64
	}
}

// New builds a Server; Start nothing — plug Handler into an http.Server.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // the exp.Runner default
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	return &Server{
		cfg:    cfg,
		gate:   newJobGate(cfg.QueueDepth, workers),
		cache:  newResultCache(),
		log:    lg,
		sweeps: make(map[string]*sweepRun),
	}
}

// Drain stops admitting work and waits for outstanding jobs (or ctx).
func (s *Server) Drain(ctx context.Context) error { return s.gate.drain(ctx) }

// sweepRequest is the POST /sweeps body. Unknown fields are rejected:
// a misspelled knob must fail loudly, not silently run the default grid.
type sweepRequest struct {
	Scenarios []string `json:"scenarios"`
	Protocols []string `json:"protocols"`
	Trials    int      `json:"trials"`
	Seed      int64    `json:"seed"`
	Quick     bool     `json:"quick"`
	// Checked defaults to true (the CLI's -check default) when omitted.
	Checked   *bool `json:"checked"`
	Overrides struct {
		TimeSec float64 `json:"timeSec"`
		Nodes   int     `json:"nodes"`
	} `json:"overrides"`
}

// submitResponse is the 202 body of POST /sweeps.
type submitResponse struct {
	ID          string `json:"id"`
	Cells       int    `json:"cells"`
	Protocols   int    `json:"protocols"`
	Total       int    `json:"totalRuns"`
	CachedRuns  int    `json:"cachedRuns"`
	FreshRuns   int    `json:"freshRuns"`
	CodeVersion string `json:"codeVersion"`
}

// catalogueEntry is one GET /scenarios row.
type catalogueEntry struct {
	Name        string            `json:"name"`
	Description string            `json:"description"`
	Protocol    scenario.Protocol `json:"protocol"`
	Vehicles    int               `json:"vehicles"`
	SimTimeSec  float64           `json:"simTimeSec"`
	Flows       int               `json:"flows"`
	Urban       bool              `json:"urban"`
	Heavy       bool              `json:"heavy"`
	SpecHash    string            `json:"specHash"`
}

// Handler returns the service's routing table. Every non-streaming
// route is wrapped in a request timeout; all routes are logged.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	timed := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, s.cfg.RequestTimeout, "request timed out\n")
	}
	mux.Handle("GET /healthz", timed(s.handleHealthz))
	mux.Handle("GET /metrics", timed(s.handleMetrics))
	mux.Handle("GET /scenarios", timed(s.handleScenarios))
	mux.Handle("POST /sweeps", timed(s.handleSubmit))
	mux.Handle("GET /sweeps", timed(s.handleSweepIndex))
	mux.Handle("GET /sweeps/{id}", timed(s.handleSweepStatus))
	mux.Handle("GET /sweeps/{id}/artifact", timed(s.handleArtifact))
	// The stream outlives any fixed timeout by design (it follows a
	// running sweep) and TimeoutHandler would buffer it besides.
	mux.Handle("GET /sweeps/{id}/stream", http.HandlerFunc(s.handleStream))
	return s.logged(mux)
}

// logged records method, path, status and duration per request.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &loggingWriter{ResponseWriter: w}
		next.ServeHTTP(lw, r)
		status := lw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.log.Printf("%s %s %d %dB %s", r.Method, r.URL.Path, status, lw.bytes, time.Since(start).Round(time.Microsecond))
	})
}

type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *loggingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush keeps the NDJSON stream flushable through the logging wrapper.
func (w *loggingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// httpError answers with a JSON error document — the daemon's 4xx/5xx
// contract: every failure is a response, never a process exit.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	specs := scenario.Specs()
	out := make([]catalogueEntry, 0, len(specs))
	for _, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "hashing %s: %v", sp.Name, err)
			return
		}
		out = append(out, catalogueEntry{
			Name:        sp.Name,
			Description: sp.Description,
			Protocol:    sp.Protocol,
			Vehicles:    sp.TotalVehicles(),
			SimTimeSec:  sp.SimTime.Seconds(),
			Flows:       len(sp.Flows),
			Urban:       sp.Urban(),
			Heavy:       sp.Heavy,
			SpecHash:    h,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// cellPlan is the submit-time cache partition of one cell: which
// protocol-axis entries must run, and their keys.
type cellPlan struct {
	keys    [][32]byte // cache key per protocol index
	missing []int      // protocol indexes to simulate
	simSec  float64    // per-run simulated seconds
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding sweep request: %v", err)
		return
	}
	protocols := make([]scenario.Protocol, 0, len(req.Protocols))
	for _, p := range req.Protocols {
		parsed, err := scenario.ParseProtocol(p)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		protocols = append(protocols, parsed)
	}
	checked := true
	if req.Checked != nil {
		checked = *req.Checked
	}
	grid, err := scenario.NewGrid(scenario.SweepConfig{
		Scenarios:       req.Scenarios,
		Protocols:       protocols,
		Trials:          req.Trials,
		Seed:            req.Seed,
		Shrunk:          req.Quick,
		Checked:         checked,
		OverrideTimeSec: req.Overrides.TimeSec,
		OverrideNodes:   req.Overrides.Nodes,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Partition the grid against the cache before admitting anything:
	// cached runs are answered from memory, in cell order, and only the
	// misses compete for queue slots — one per cell with a miss.
	keys, err := runKeys(grid)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run := newSweepRun(grid)
	np := len(grid.Protocols)
	plans := make([]cellPlan, grid.Cells())
	var jobs []int
	var simSec, cachedSimSec float64
	for j := range plans {
		if j%grid.Trials == 0 {
			simSec = grid.SimTime(j / grid.Trials).Seconds()
		}
		plan := cellPlan{keys: keys[j*np : (j+1)*np], simSec: simSec}
		for pi, key := range plan.keys {
			if res, ok := s.cache.get(key); ok {
				run.complete(j, pi, res, true)
				cachedSimSec += simSec
			} else {
				plan.missing = append(plan.missing, pi)
			}
		}
		if plans[j] = plan; len(plan.missing) > 0 {
			jobs = append(jobs, j)
		}
	}
	if err := s.gate.admit(len(jobs)); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	hits, misses := run.cacheHits, run.totalRuns()-run.cacheHits // not yet shared
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	run.id = id
	s.sweeps[id] = run
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.met.Lock()
	s.met.cacheHits += uint64(hits)
	s.met.cacheMisses += uint64(misses)
	s.met.simSecondsServed += cachedSimSec
	s.met.Unlock()

	s.log.Printf("sweep %s: %d cells, %d runs (%d cached, %d fresh), code %s",
		id, grid.Cells(), run.totalRuns(), hits, misses, codeVersion)

	if len(jobs) == 0 {
		run.finish(nil)
	} else {
		go s.runSweep(run, plans, jobs)
	}

	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:          id,
		Cells:       grid.Cells(),
		Protocols:   len(grid.Protocols),
		Total:       run.totalRuns(),
		CachedRuns:  hits,
		FreshRuns:   misses,
		CodeVersion: codeVersion,
	})
}

// runSweep executes the uncached cells of one sweep on the engine.
// jobs[k] is the cell index of job k; each job runs its cell's missing
// protocol subset under a gate token. A panicking spec fails the sweep,
// not the daemon.
func (s *Server) runSweep(run *sweepRun, plans []cellPlan, jobs []int) {
	var startedMu sync.Mutex
	started := 0
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serve: sweep %s panicked: %v", run.id, p)
			}
		}()
		_, err = exp.Map(exp.Runner{Workers: s.cfg.Workers}, len(jobs), func(k int) (struct{}, error) {
			startedMu.Lock()
			started++
			startedMu.Unlock()
			s.gate.start()
			defer s.gate.finish()
			j := jobs[k]
			plan := plans[j]
			results, err := run.grid.RunCell(j, protocolSubset(run.grid.Protocols, plan.missing))
			if err != nil {
				return struct{}{}, err
			}
			for i, pi := range plan.missing {
				s.cache.put(plan.keys[pi], results[i])
				run.complete(j, pi, results[i], false)
			}
			s.met.Lock()
			s.met.jobsDone++
			s.met.simSecondsServed += float64(plan.simSec * float64(len(plan.missing))) // not fused
			s.met.Unlock()
			return struct{}{}, nil
		})
		return err
	}()
	// Jobs skipped after a failure hold admission slots but never start;
	// hand those back so the queue does not leak capacity.
	startedMu.Lock()
	skipped := len(jobs) - started
	startedMu.Unlock()
	s.gate.abandon(skipped)
	if err != nil {
		s.log.Printf("sweep %s: failed: %v", run.id, err)
	} else {
		s.log.Printf("sweep %s: done", run.id)
	}
	run.finish(err)
}

func protocolSubset(axis []scenario.Protocol, idx []int) []scenario.Protocol {
	out := make([]scenario.Protocol, len(idx))
	for i, pi := range idx {
		out[i] = axis[pi]
	}
	return out
}

func (s *Server) lookup(id string) (*sweepRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.sweeps[id]
	return run, ok
}

func (s *Server) handleSweepIndex(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if run, ok := s.lookup(id); ok {
			out = append(out, run.status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, run.status())
}

// handleStream follows a sweep as NDJSON: one "result" line per
// completed (cell, protocol) run, then a single "done" line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		events, done, err, update := run.snapshot(from)
		for _, ev := range events {
			if encErr := enc.Encode(ev); encErr != nil {
				return // client went away
			}
		}
		from += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			final := StreamEvent{Type: "done", Completed: from, Total: run.totalRuns()}
			if err != nil {
				final.Error = err.Error()
			}
			_ = enc.Encode(final)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-update:
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves the finished sweep table — the same bytes
// `cavenet scenario sweep` prints, because both call the same renderer
// over the same aggregation.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	switch strings.ToLower(format) {
	case "csv", "json":
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want csv or json)", format)
		return
	}
	rows, err := run.artifact()
	switch {
	case errors.Is(err, errNotFinished):
		httpError(w, http.StatusConflict, "sweep %s still running", run.id)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "sweep %s failed: %v", run.id, err)
		return
	}
	var buf bytes.Buffer
	if strings.EqualFold(format, "json") {
		err = scenario.WriteSweepJSON(&buf, rows)
		w.Header().Set("Content-Type", "application/json")
	} else {
		err = scenario.WriteSweepCSV(&buf, rows)
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "rendering artifact: %v", err)
		return
	}
	_, _ = w.Write(buf.Bytes())
}

// Metrics is the JSON shape of GET /metrics?format=json.
type Metrics struct {
	JobsQueued       int     `json:"jobsQueued"`
	JobsRunning      int     `json:"jobsRunning"`
	JobsDone         uint64  `json:"jobsDone"`
	CacheHits        uint64  `json:"cacheHits"`
	CacheMisses      uint64  `json:"cacheMisses"`
	CacheEntries     int     `json:"cacheEntries"`
	SimSecondsServed float64 `json:"simSecondsServed"`
	Sweeps           int     `json:"sweeps"`
	CodeVersion      string  `json:"codeVersion"`
}

// SnapshotMetrics returns the service counters (also the /metrics body).
func (s *Server) SnapshotMetrics() Metrics {
	queued, running := s.gate.counts()
	s.mu.Lock()
	sweeps := len(s.sweeps)
	s.mu.Unlock()
	s.met.Lock()
	defer s.met.Unlock()
	return Metrics{
		JobsQueued:       queued,
		JobsRunning:      running,
		JobsDone:         s.met.jobsDone,
		CacheHits:        s.met.cacheHits,
		CacheMisses:      s.met.cacheMisses,
		CacheEntries:     s.cache.len(),
		SimSecondsServed: s.met.simSecondsServed,
		Sweeps:           sweeps,
		CodeVersion:      codeVersion,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.SnapshotMetrics()
	switch format := r.URL.Query().Get("format"); strings.ToLower(format) {
	case "json":
		writeJSON(w, http.StatusOK, m)
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "cavenet_jobs_queued %d\n", m.JobsQueued)
		fmt.Fprintf(w, "cavenet_jobs_running %d\n", m.JobsRunning)
		fmt.Fprintf(w, "cavenet_jobs_done %d\n", m.JobsDone)
		fmt.Fprintf(w, "cavenet_cache_hits %d\n", m.CacheHits)
		fmt.Fprintf(w, "cavenet_cache_misses %d\n", m.CacheMisses)
		fmt.Fprintf(w, "cavenet_cache_entries %d\n", m.CacheEntries)
		fmt.Fprintf(w, "cavenet_sim_seconds_served %g\n", m.SimSecondsServed)
		fmt.Fprintf(w, "cavenet_sweeps %d\n", m.Sweeps)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want text or json)", format)
	}
}
