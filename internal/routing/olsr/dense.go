package olsr

import (
	"slices"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// This file holds the production recompute kernels. They run entirely on
// dense interned indices with reusable scratch buffers — zero steady-state
// heap allocations (asserted by TestRecomputeZeroAlloc) — and produce
// bit-identical MPR sets, routes and wire contents to the map-based oracle
// in oracle_test.go (asserted by TestDenseMatchesOracle).

// denseScratch holds the reusable buffers of the dense kernels. Their
// per-index scratch sits in the slots (symStamp, thStamp, thPos),
// epoch-stamped so "clearing" it is a counter increment.
type denseScratch struct {
	// Symmetric neighborhood of the current round, sorted by NodeID (the
	// deterministic candidate order of the greedy MPR pass), and the sort
	// keys that order it.
	symList []int32
	symKeys []int64

	// Strict 2-hop universe, compacted per round.
	thList []int32

	// CSR coverage: covTH[covOff[k]:covOff[k+1]] lists the compact 2-hop
	// ids reachable through symList[k].
	covOff []int32
	covTH  []int32

	provCount []int32
	provLast  []int32
	covered   []bool

	// Dijkstra state.
	labeled []int32
	heap    []djNode
}

// djNode is a heap entry: the (cost, hops, next) label of idx when pushed.
type djNode struct {
	cost float64
	hops int32
	next netsim.NodeID
	idx  int32
}

func djLess(a, b djNode) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	if a.next != b.next {
		return a.next < b.next
	}
	return a.idx < b.idx
}

func djPush(h *[]djNode, nd djNode) {
	s := append(*h, nd)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !djLess(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func djPop(h *[]djNode) djNode {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && djLess(s[l], s[min]) {
			min = l
		}
		if r < n && djLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	return s
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = false
		}
	}
	return s
}

// recomputeDense materializes the parts in run of the recompute stamped at
// now (materialize passes the stamp's time, which may lie in the past; see
// recomputeNow): the MPR set (RFC 3626 §8.3.1), the routing table (§10) or
// both. The 2-hop set feeds both, so one walk over its chains builds the
// MPR coverage lists and relaxes the 2-hop routes. The kernels skip tuples
// that lead back to this node by its interned index, meIdx (-1 when nobody
// mentioned it yet), so they read no slot's id.
func (r *Router) recomputeDense(now sim.Time, run part) {
	epoch := r.nextEpoch()
	meIdx := r.idx.Index(r.node.ID())
	mpr, routes := run&partMPR != 0, run&partRoutes != 0
	if routes {
		r.routeEpoch = epoch
	}
	r.denseNeighbors(now, epoch, routes)
	r.denseTwoHop(now, epoch, meIdx, mpr, routes)
	if mpr {
		r.denseSelectMPRs(epoch)
	}
	if routes {
		r.denseTopologyRoutes(now, epoch, meIdx)
	}
}

// denseNeighbors lists the symmetric neighbors sorted by NodeID (the
// deterministic candidate order of the greedy MPR pass and the visiting
// order of the 2-hop routes) and, when routes are being built, gives each
// its distance-1 route. A run without them leaves every routeStamp alone:
// stamping one with this run's epoch would hide it from routeFor, which
// reads the table of the last run that built routes.
func (r *Router) denseNeighbors(now sim.Time, epoch uint64, routes bool) {
	sc := &r.scratch
	// A key is the neighbor's NodeID (a world index, so it fits 32 bits)
	// over its interned index: sorting the keys sorts by NodeID.
	sc.symKeys = sc.symKeys[:0]
	for _, fi := range r.linkList {
		if s := r.slot(fi); s.link.symUntil > now {
			s.symStamp = epoch
			sc.symKeys = append(sc.symKeys, int64(s.id)<<32|int64(fi))
		}
	}
	slices.Sort(sc.symKeys)
	sc.symList = sc.symList[:0]
	sc.labeled = sc.labeled[:0]
	for _, key := range sc.symKeys {
		fi := int32(key)
		sc.symList = append(sc.symList, fi)
		if routes {
			s := r.slot(fi)
			s.route = routeEntry{next: s.id, hops: 1, cost: r.linkCost(&s.link)}
			s.routeStamp = epoch
			sc.labeled = append(sc.labeled, fi)
		}
	}
}

// denseTwoHop walks the 2-hop tuples of every symmetric neighbor, in
// sorted (neighbor, 2-hop) order. For the MPR pass (mpr) it lists the
// strict 2-hop nodes each neighbor reaches (not us, not themselves
// symmetric neighbors); for the routing table (routes) it offers each
// 2-hop node a route through the neighbor. The base must still be a
// distance-1 route when each tuple is visited — this single pass is
// order-dependent, so the order is part of the shared contract with the
// oracle.
func (r *Router) denseTwoHop(now sim.Time, epoch uint64, meIdx int32, mpr, routes bool) {
	sc := &r.scratch
	sc.thList = sc.thList[:0]
	sc.covOff = sc.covOff[:0]
	sc.covTH = sc.covTH[:0]
	for _, fi := range sc.symList {
		if mpr {
			sc.covOff = append(sc.covOff, int32(len(sc.covTH)))
		}
		fs := r.slot(fi)
		for i := fs.twoHop; i != noTuple; {
			t := r.twoHopExp.At(i)
			i = t.next
			if t.until <= now || t.th == meIdx {
				continue
			}
			ts := r.slot(t.th)
			if mpr && ts.symStamp != epoch {
				if ts.thStamp != epoch {
					ts.thStamp = epoch
					ts.thPos = int32(len(sc.thList))
					sc.thList = append(sc.thList, t.th)
				}
				sc.covTH = append(sc.covTH, ts.thPos)
			}
			if !routes {
				continue
			}
			base := fs.route
			if fs.routeStamp != epoch || base.hops != 1 {
				continue
			}
			cand := routeEntry{next: fs.id, hops: 2, cost: base.cost + 1}
			if ts.routeStamp != epoch {
				ts.routeStamp = epoch
				ts.route = cand
				sc.labeled = append(sc.labeled, t.th)
			} else if lessRoute(cand, ts.route) {
				ts.route = cand
			}
		}
	}
	if mpr {
		sc.covOff = append(sc.covOff, int32(len(sc.covTH)))
	}
}

// denseSelectMPRs runs the greedy heuristic of RFC 3626 §8.3.1 — sole
// providers first, then repeated max-coverage with ties to the lowest
// NodeID — over the CSR coverage lists denseTwoHop built instead of
// map-of-maps.
func (r *Router) denseSelectMPRs(epoch uint64) {
	sc := &r.scratch
	nth := len(sc.thList)
	sc.provCount = resizeI32(sc.provCount, nth)
	sc.provLast = resizeI32(sc.provLast, nth)
	sc.covered = resizeBool(sc.covered, nth)
	for k := range sc.symList {
		for _, c := range sc.covTH[sc.covOff[k]:sc.covOff[k+1]] {
			sc.provCount[c]++
			sc.provLast[c] = int32(k)
		}
	}

	// Pass 1: neighbors that are the sole route to some 2-hop node.
	r.mprEpoch = epoch
	r.mprList = r.mprList[:0]
	for c := 0; c < nth; c++ {
		if sc.provCount[c] == 1 {
			r.slot(sc.symList[sc.provLast[c]]).mprStamp = epoch
		}
	}
	uncovered := nth
	for k, fi := range sc.symList {
		if r.slot(fi).mprStamp != epoch {
			continue
		}
		for _, c := range sc.covTH[sc.covOff[k]:sc.covOff[k+1]] {
			if !sc.covered[c] {
				sc.covered[c] = true
				uncovered--
			}
		}
	}

	// Pass 2: greedy max-coverage until everything reachable is covered.
	for uncovered > 0 {
		best, bestCount := -1, 0
		for k, fi := range sc.symList {
			if r.slot(fi).mprStamp == epoch {
				continue
			}
			count := 0
			for _, c := range sc.covTH[sc.covOff[k]:sc.covOff[k+1]] {
				if !sc.covered[c] {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = k, count
			}
		}
		if best < 0 {
			break // remaining 2-hop nodes are unreachable; sets will expire
		}
		r.slot(sc.symList[best]).mprStamp = epoch
		for _, c := range sc.covTH[sc.covOff[best]:sc.covOff[best+1]] {
			if !sc.covered[c] {
				sc.covered[c] = true
				uncovered--
			}
		}
	}

	for _, fi := range sc.symList { // symList is NodeID-sorted
		if s := r.slot(fi); s.mprStamp == epoch {
			r.mprList = append(r.mprList, s.id)
		}
	}
}

// denseTopologyRoutes finishes the routing table (RFC 3626 §10) with a
// lexicographic Dijkstra over the per-origin topology chains. All weights
// are ≥ 1 and labels are totally ordered by (cost, hops, next), so the
// result equals the oracle's relax-to-fixpoint outcome exactly, and the
// order in which a node's edges are relaxed cannot change it: a label is
// replaced only by a strictly less one.
func (r *Router) denseTopologyRoutes(now sim.Time, epoch uint64, meIdx int32) {
	sc := &r.scratch
	// Seeded with every label so far. Stale heap entries are skipped by comparing against the live
	// label; strictly positive weights make popped labels final.
	sc.heap = sc.heap[:0]
	for _, idx := range sc.labeled {
		e := r.slot(idx).route
		djPush(&sc.heap, djNode{cost: e.cost, hops: int32(e.hops), next: e.next, idx: idx})
	}
	for len(sc.heap) > 0 {
		nd := djPop(&sc.heap)
		ns := r.slot(nd.idx)
		cur := ns.route
		if ns.routeStamp != epoch ||
			cur.cost != nd.cost || int32(cur.hops) != nd.hops || cur.next != nd.next {
			continue // superseded while queued
		}
		for i := ns.topo; i != noTuple; {
			t := r.topoExp.At(i)
			i = t.next
			if t.until <= now || t.dest == meIdx {
				continue
			}
			w := 1.0
			if r.cfg.ETX && t.linkLQ > 0 {
				w = etxCost(t.linkLQ, t.linkLQ)
			}
			cand := routeEntry{next: cur.next, hops: cur.hops + 1, cost: cur.cost + w}
			if ds := r.slot(t.dest); ds.routeStamp != epoch {
				ds.routeStamp = epoch
				ds.route = cand
			} else if lessRoute(cand, ds.route) {
				ds.route = cand
			} else {
				continue
			}
			djPush(&sc.heap, djNode{cost: cand.cost, hops: int32(cand.hops), next: cand.next, idx: t.dest})
		}
	}
}
