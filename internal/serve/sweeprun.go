package serve

import (
	"sync"

	"cavenet/internal/scenario"
)

// StreamEvent is one NDJSON line of a sweep's result stream: a "result"
// line per completed (cell, protocol) run — cached cells stream
// immediately, fresh ones as they land — and one final "done" line.
type StreamEvent struct {
	Type     string                `json:"type"` // "result" | "done"
	Cell     int                   `json:"cell"`
	Scenario string                `json:"scenario,omitempty"`
	Trial    int                   `json:"trial"`
	Protocol scenario.Protocol     `json:"protocol,omitempty"`
	Cached   bool                  `json:"cached,omitempty"`
	Result   *scenario.TrialResult `json:"result,omitempty"`
	// Completed/Total and Error describe the whole sweep on "done" lines.
	Completed int    `json:"completed,omitempty"`
	Total     int    `json:"total,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Status is the JSON shape of GET /sweeps/{id}.
type Status struct {
	ID          string `json:"id"`
	Done        bool   `json:"done"`
	Cells       int    `json:"cells"`
	Protocols   int    `json:"protocols"`
	Total       int    `json:"totalRuns"`
	Completed   int    `json:"completedRuns"`
	CacheHits   int    `json:"cacheHits"`
	CacheMisses int    `json:"cacheMisses"`
	Error       string `json:"error,omitempty"`
}

// sweepRun is the server-side state of one submitted grid. Cell results
// land in an index-addressed matrix (the exp.Map gather discipline), so
// the finished artifact is identical no matter in which order — or from
// which mix of cache and fresh simulation — the runs completed.
type sweepRun struct {
	id   string
	grid *scenario.Grid

	mu     sync.Mutex
	update chan struct{} // made by a listener's snapshot, closed by the next change; nil while nobody waits
	cells  [][]scenario.TrialResult
	filled [][]bool
	events []StreamEvent
	done   bool
	err    error

	cacheHits, cacheMisses int
}

// newSweepRun builds a run's state; it takes its id when it is admitted.
func newSweepRun(grid *scenario.Grid) *sweepRun {
	r := &sweepRun{
		grid:   grid,
		cells:  make([][]scenario.TrialResult, grid.Cells()),
		filled: make([][]bool, grid.Cells()),
	}
	r.events = make([]StreamEvent, 0, r.totalRuns())
	np := len(grid.Protocols)
	results, filled := make([]scenario.TrialResult, r.totalRuns()), make([]bool, r.totalRuns())
	for j := range r.cells {
		r.cells[j], r.filled[j] = results[j*np:(j+1)*np:(j+1)*np], filled[j*np:(j+1)*np:(j+1)*np]
	}
	return r
}

// notify wakes every stream listener. Only a snapshot hands the channel
// out, so while it is nil nobody can be waiting on it (the cached results
// of a warm submit land before any stream exists) and there is nothing to
// close. Callers hold r.mu.
func (r *sweepRun) notify() {
	if r.update != nil {
		close(r.update)
		r.update = nil
	}
}

// complete records one (cell, protocol) result and streams it.
func (r *sweepRun) complete(cell, pi int, res scenario.TrialResult, cached bool) {
	name, trial := r.grid.Cell(cell)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled[cell][pi] {
		return
	}
	r.cells[cell][pi] = res
	r.filled[cell][pi] = true
	if cached {
		r.cacheHits++
	} else {
		r.cacheMisses++
	}
	// The cell's slot is written once, here, so the event can point at it.
	r.events = append(r.events, StreamEvent{
		Type: "result", Cell: cell, Scenario: name, Trial: trial,
		Protocol: r.grid.Protocols[pi], Cached: cached, Result: &r.cells[cell][pi],
	})
	r.notify()
}

// finish seals the run; err records the lowest-index failure, if any.
func (r *sweepRun) finish(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	r.err = err
	r.notify()
}

// totalRuns is the grid's (cell × protocol) run count.
func (r *sweepRun) totalRuns() int { return r.grid.Cells() * len(r.grid.Protocols) }

// status snapshots the run for the status endpoint.
func (r *sweepRun) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:          r.id,
		Done:        r.done,
		Cells:       r.grid.Cells(),
		Protocols:   len(r.grid.Protocols),
		Total:       r.totalRuns(),
		Completed:   len(r.events),
		CacheHits:   r.cacheHits,
		CacheMisses: r.cacheMisses,
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	return st
}

// snapshot returns the events from index `from` on, plus the done state
// and the channel that signals the next change — the stream handler's
// wait loop primitive.
func (r *sweepRun) snapshot(from int) (events []StreamEvent, done bool, err error, update <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.update == nil {
		r.update = make(chan struct{})
	}
	// Events are append-only, so the prefix can be shared without a copy.
	return r.events[from:len(r.events):len(r.events)], r.done, r.err, r.update
}

// artifact aggregates the finished matrix into sweep rows. It is only
// valid once every run completed.
func (r *sweepRun) artifact() ([]scenario.SweepRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		return nil, errNotFinished
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.grid.Aggregate(r.cells), nil
}
