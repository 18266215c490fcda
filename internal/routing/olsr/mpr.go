package olsr

// Shared pieces of the two recompute implementations (dense.go holds the
// production kernels, oracle_test.go the map-based reference): the
// link-cost model, the deterministic route tie-break, and the ETX
// link-quality estimator.

// linkCost is the outgoing edge weight of a 1-hop link: 1 in hop-count
// mode, ETX otherwise. Weights are always ≥ 1, which the Dijkstra kernel's
// finality argument relies on.
func (r *Router) linkCost(lt *linkTuple) float64 {
	if !r.cfg.ETX || lt.lq == nil {
		return 1
	}
	return etxCost(lt.lq.ratio(), lt.lq.ratio())
}

// lessRoute orders route candidates by (cost, hops, next hop): the
// deterministic tie-break shared by the dense kernels and the oracle. A
// candidate replaces the incumbent only when strictly less, so both the
// oracle's iterate-to-fixpoint relaxation and the dense Dijkstra converge
// to the same unique minimal label per destination.
func lessRoute(a, b routeEntry) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.next < b.next
}

// etxCost computes ETX(i) = 1/(NI·LQI), clamped to avoid division blowups
// on links that have not yet been measured.
func etxCost(ni, lqi float64) float64 {
	const floor = 0.05
	if ni < floor {
		ni = floor
	}
	if lqi < floor {
		lqi = floor
	}
	return 1 / (ni * lqi)
}

// lqEstimator measures the hello-arrival ratio over a sliding window of
// expected hello periods (the NI(i) of the paper's ETX description). The
// window is a fixed ring buffer with a running arrival count, so closing a
// period and reading the ratio are both O(1) — the previous implementation
// shifted a slice per tick and rescanned the window per ratio query.
type lqEstimator struct {
	ring    []bool // one slot per closed period; true = hello arrived
	head    int    // next slot to overwrite
	filled  int    // closed periods recorded, ≤ len(ring)
	hits    int    // arrivals among the recorded periods
	arrived bool   // hello seen in the currently open period
}

func newLQEstimator(window int) *lqEstimator {
	return &lqEstimator{ring: make([]bool, window)}
}

// reset clears the history (used when a purged link reappears and its
// estimator object is recycled).
func (e *lqEstimator) reset() {
	e.head, e.filled, e.hits, e.arrived = 0, 0, 0, false
}

// heard records a hello arrival in the current period.
func (e *lqEstimator) heard() { e.arrived = true }

// tick closes the current period (called once per local hello emission,
// which has the right cadence since both ends use the same interval).
func (e *lqEstimator) tick() {
	if e.filled == len(e.ring) {
		if e.ring[e.head] {
			e.hits--
		}
	} else {
		e.filled++
	}
	e.ring[e.head] = e.arrived
	if e.arrived {
		e.hits++
	}
	e.head++
	if e.head == len(e.ring) {
		e.head = 0
	}
	e.arrived = false
}

// ratio reports arrivals/expected over the window; optimistic 1.0 before
// any period closes.
func (e *lqEstimator) ratio() float64 {
	if e.filled == 0 {
		return 1
	}
	return float64(e.hits) / float64(e.filled)
}
