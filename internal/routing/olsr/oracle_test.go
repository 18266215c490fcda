package olsr

import (
	"sort"
	"testing"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// This file holds the original map-based MPR selection and routing-table
// computation, the reference the dense kernels of dense.go are tested
// against. It allocates ~8 maps plus sorts per recompute — the
// pre-optimization cost profile that BenchmarkOLSRControlPlane measures
// against — and must stay semantically identical to dense.go:
// TestDenseMatchesOracle asserts bit-identical routes, MPR sets and wire
// contents across randomized topologies. Run at every stamp by the eager
// driver (materializeOracle, settleOracle), it is also the reference for the dense
// path's demand-driven materialization (see recomputeNow).
//
// Two deliberate deviations from the seed implementation, shared with the
// dense path: route replacement uses the total (cost, hops, next) order of
// lessRoute instead of cost alone (making equal-cost tie-breaks
// deterministic rather than map-iteration-dependent), and the 2-hop pass
// visits tuples in sorted (neighbor, 2-hop) order for the same reason.

// recomputeOracle runs both map-based kernels at now, publishing through the
// epoch-stamped tables the dense kernels write.
func (r *Router) recomputeOracle() {
	now := r.now()
	epoch := r.nextEpoch()
	r.oracleSelectMPRs(now, epoch)
	r.oracleComputeRoutes(now, epoch)
}

// settleOracle materializes a pending stamp at once with the map-based
// kernels. Called after every kernel event, before anything else can touch
// the control state, it evaluates each stamp on the state at its τ — the
// eager trajectory the lemma at recomputeNow compares the deferral against.
// The stamp must be this instant's: a later call would be the deferral.
func (r *Router) settleOracle(tb testing.TB) {
	tb.Helper()
	if r.pending == 0 {
		return
	}
	if r.lastRecompute != r.now() {
		tb.Fatalf("eager driver: stamp of %v left pending until %v", r.lastRecompute, r.now())
	}
	r.pending = 0
	r.mprRuns++
	r.routeRuns++
	r.recomputeOracle()
}

// materializeOracle is materialize on the eager side: a read stamps a dirty
// router and materializes both parts of the stamp with the map-based
// kernels, so the read's own materialize finds nothing to do.
func (r *Router) materializeOracle(tb testing.TB) {
	tb.Helper()
	if r.dirty {
		r.recomputeNow()
	}
	r.settleOracle(tb)
}

// symNeighbors lists neighbors with currently symmetric links.
func (r *Router) symNeighbors() []netsim.NodeID {
	now := r.now()
	var out []netsim.NodeID
	for _, fi := range r.linkList {
		if s := r.slot(fi); s.link.symUntil > now {
			out = append(out, s.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// eachTwoHop visits every stored 2-hop tuple.
func (r *Router) eachTwoHop(f func(nbr, th netsim.NodeID, until sim.Time)) {
	for fi := int32(0); fi < r.slots.Len(); fi++ {
		for i := r.slot(fi).twoHop; i != noTuple; {
			t := r.twoHopExp.At(i)
			f(r.slot(fi).id, r.slot(t.th).id, t.until)
			i = t.next
		}
	}
}

// eachTopo visits every stored topology tuple.
func (r *Router) eachTopo(f func(origin, dest netsim.NodeID, t *topoTuple)) {
	for oi := int32(0); oi < r.slots.Len(); oi++ {
		for i := r.slot(oi).topo; i != noTuple; {
			t := r.topoExp.At(i)
			f(r.slot(oi).id, r.slot(t.dest).id, t)
			i = t.next
		}
	}
}

// oracleSelectMPRs runs the greedy heuristic of RFC 3626 §8.3.1: first
// pick the only-reachability neighbors (sole providers of some 2-hop
// node), then repeatedly pick the neighbor covering the most uncovered
// 2-hop nodes.
func (r *Router) oracleSelectMPRs(now sim.Time, epoch uint64) {
	me := r.node.ID()

	sym := make(map[netsim.NodeID]bool)
	for _, n := range r.symNeighbors() {
		sym[n] = true
	}

	// coverage[n] = set of strict 2-hop nodes reachable through neighbor n.
	coverage := make(map[netsim.NodeID]map[netsim.NodeID]bool)
	uncovered := make(map[netsim.NodeID]bool)
	r.eachTwoHop(func(nbr, th netsim.NodeID, until sim.Time) {
		if until <= now || !sym[nbr] {
			return
		}
		// Strict 2-hop: not us, not itself a symmetric neighbor.
		if th == me || sym[th] {
			return
		}
		if coverage[nbr] == nil {
			coverage[nbr] = make(map[netsim.NodeID]bool)
		}
		coverage[nbr][th] = true
		uncovered[th] = true
	})

	mprs := make(map[netsim.NodeID]struct{})

	// Pass 1: neighbors that are the sole route to some 2-hop node.
	providers := make(map[netsim.NodeID][]netsim.NodeID)
	for n, covers := range coverage { // order-free: only the providers' counts are read
		for th := range covers { // order-free: only the providers' counts are read
			providers[th] = append(providers[th], n)
		}
	}
	for _, ps := range providers { // order-free: set insertions
		if len(ps) == 1 {
			mprs[ps[0]] = struct{}{}
		}
	}
	for n := range mprs { // order-free: set deletions
		for th := range coverage[n] { // order-free: set deletions
			delete(uncovered, th)
		}
	}

	// Pass 2: greedy max-coverage until everything is covered.
	for len(uncovered) > 0 {
		best := netsim.NodeID(-1)
		bestCount := 0
		// Deterministic iteration order for reproducibility.
		candidates := make([]netsim.NodeID, 0, len(coverage))
		for n := range coverage { // order-free: the candidates are sorted below
			candidates = append(candidates, n)
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
		for _, n := range candidates {
			if _, already := mprs[n]; already {
				continue
			}
			count := 0
			for th := range coverage[n] { // order-free: an integer count
				if uncovered[th] {
					count++
				}
			}
			if count > bestCount {
				bestCount = count
				best = n
			}
		}
		if best < 0 {
			break // remaining 2-hop nodes are unreachable; sets will expire
		}
		mprs[best] = struct{}{}
		for th := range coverage[best] { // order-free: set deletions
			delete(uncovered, th)
		}
	}

	// Publish through the shared epoch-stamped representation.
	r.mprEpoch = epoch
	r.mprList = r.mprList[:0]
	for id := range mprs { // order-free: stamps a set; the list is sorted below
		r.slot(r.idx.Index(id)).mprStamp = epoch
		r.mprList = append(r.mprList, id)
	}
	sort.Slice(r.mprList, func(i, j int) bool { return r.mprList[i] < r.mprList[j] })
}

// oracleComputeRoutes rebuilds the routing table (RFC 3626 §10):
// symmetric neighbors at distance 1, 2-hop tuples at distance 2, then
// topology-set edges relaxed until no route changes. In ETX mode edge
// weights are ETX = 1/(NI·LQI) and the relaxation minimizes total cost
// instead of hops.
func (r *Router) oracleComputeRoutes(now sim.Time, epoch uint64) {
	me := r.node.ID()
	routes := make(map[netsim.NodeID]routeEntry)

	for _, fi := range r.linkList {
		s := r.slot(fi)
		if s.link.symUntil > now {
			routes[s.id] = routeEntry{next: s.id, hops: 1, cost: r.linkCost(&s.link)}
		}
	}

	// 2-hop tuples in sorted (neighbor, 2-hop) order; this single pass is
	// order-dependent (a base may stop being distance 1 mid-pass in ETX
	// mode), so the order is part of the contract with the dense kernel.
	type thTuple struct {
		nbr, th netsim.NodeID
		until   sim.Time
	}
	var tuples []thTuple
	r.eachTwoHop(func(nbr, th netsim.NodeID, until sim.Time) {
		tuples = append(tuples, thTuple{nbr: nbr, th: th, until: until})
	})
	sort.Slice(tuples, func(i, j int) bool {
		if tuples[i].nbr != tuples[j].nbr {
			return tuples[i].nbr < tuples[j].nbr
		}
		return tuples[i].th < tuples[j].th
	})
	for _, t := range tuples {
		if t.until <= now || t.th == me {
			continue
		}
		base, ok := routes[t.nbr]
		if !ok || base.hops != 1 {
			continue
		}
		cand := routeEntry{next: t.nbr, hops: 2, cost: base.cost + 1}
		if cur, exists := routes[t.th]; !exists || lessRoute(cand, cur) {
			routes[t.th] = cand
		}
	}

	// Relax topology edges (origin → dest) until fixpoint. The lessRoute
	// total order makes the fixpoint unique, so iteration order is
	// irrelevant here.
	for changed := true; changed; {
		changed = false
		r.eachTopo(func(origin, dest netsim.NodeID, e *topoTuple) {
			if e.until <= now || dest == me {
				return
			}
			via, ok := routes[origin]
			if !ok {
				return
			}
			w := 1.0
			if r.cfg.ETX && e.linkLQ > 0 {
				w = etxCost(e.linkLQ, e.linkLQ)
			}
			cand := routeEntry{next: via.next, hops: via.hops + 1, cost: via.cost + w}
			if cur, exists := routes[dest]; !exists || lessRoute(cand, cur) {
				routes[dest] = cand
				changed = true
			}
		})
	}

	// Publish through the shared epoch-stamped representation. Every route
	// destination is interned (it came from a link, 2-hop or topology
	// tuple), so the index lookup cannot miss.
	r.routeEpoch = epoch
	for id, e := range routes { // order-free: each route lands in its own slot
		s := r.slot(r.idx.Index(id))
		s.route = e
		s.routeStamp = epoch
	}
}
