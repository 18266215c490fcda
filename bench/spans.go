package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary: the call the benchmark
// itself makes into a layer. Spans of one op share its Op id; Parent is
// the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the traced pass's spans and CPU samples in memory until
// the benchmark ends. A nil *tracer is the untraced pass: every method is
// a no-op, so workloads call it unconditionally.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	stacks  []stackSample // of every profile taken so far
	samples int64         // how many profiler ticks they stand for
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries were taken elsewhere (the timing
// mobility source finds the set-up/event-loop boundary from inside a run).
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
	})
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// profileHz is the CPU profiler's sampling rate. pprof.StartCPUProfile
// asks for 100 Hz, which over the few seconds of a traced pass leaves the
// layer shares resting on a few hundred samples. The runtime keeps a rate
// that is already set — and says so on standard error, once per profile —
// so setting it first is how a program samples faster; the profile
// records the rate really used, and samples carry CPU nanoseconds.
const profileHz = 500

// minSamples is how many CPU-profile samples the per-layer shares of a
// traced run should rest on: the traced pass goes on until it has them,
// and the suite flags a run that ended with fewer.
const minSamples = 1000

// profile runs fn under the CPU profiler and keeps the profile for
// attribution; untraced it just runs fn.
func (t *tracer) profile(fn func()) error {
	if t == nil {
		fn()
		return nil
	}
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	t.stacks = append(t.stacks, stacks...)
	for _, s := range stacks {
		t.samples += s.Samples
	}
	return nil
}

// write stores the spans as JSON, creating the directory if needed.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
