package olsr

import (
	"sort"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// This file holds the production recompute kernels. They run entirely on
// dense interned indices with reusable scratch buffers — zero steady-state
// heap allocations (asserted by TestRecomputeZeroAlloc) — and produce
// bit-identical MPR sets, routes and wire contents to the map-based oracle
// in oracle.go (asserted by TestDenseMatchesOracle).

// denseScratch holds the reusable buffers of the dense kernels. Per-index
// arrays are epoch-stamped so "clearing" them is a counter increment.
type denseScratch struct {
	// Symmetric neighborhood of the current round, sorted by NodeID (the
	// deterministic candidate order of the greedy MPR pass).
	symList  []int32
	symStamp []uint64
	symSort  idxSorter

	// Strict 2-hop universe, compacted per round.
	thStamp []uint64
	thPos   []int32
	thList  []int32

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

// idxSorter sorts interned indices by their NodeID without allocating (a
// sort.Slice closure would escape); the sorter lives in the scratch so the
// interface conversion reuses its heap pointer.
type idxSorter struct {
	s   []int32
	ids []netsim.NodeID
}

func (x *idxSorter) Len() int           { return len(x.s) }
func (x *idxSorter) Swap(i, j int)      { x.s[i], x.s[j] = x.s[j], x.s[i] }
func (x *idxSorter) Less(i, j int) bool { return x.ids[x.s[i]] < x.ids[x.s[j]] }

// ensureScratch grows the per-index stamp arrays to the interned universe.
func (r *Router) ensureScratch() {
	n := len(r.ids)
	sc := &r.scratch
	for len(sc.symStamp) < n {
		sc.symStamp = append(sc.symStamp, 0)
		sc.thStamp = append(sc.thStamp, 0)
		sc.thPos = append(sc.thPos, 0)
	}
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

// recomputeDense materializes the recompute stamped at now (flush passes
// the stamp's time, which may lie in the past; see recomputeNow).
func (r *Router) recomputeDense(now sim.Time) {
	epoch := r.nextEpoch()
	r.ensureScratch()
	r.denseSelectMPRs(now, epoch)
	r.denseComputeRoutes(now, epoch)
}

// denseSelectMPRs runs the greedy heuristic of RFC 3626 §8.3.1 — sole
// providers first, then repeated max-coverage with ties to the lowest
// NodeID — over CSR coverage lists instead of map-of-maps.
func (r *Router) denseSelectMPRs(now sim.Time, epoch uint64) {
	sc := &r.scratch
	me := r.node.ID()

	sc.symList = sc.symList[:0]
	for _, fi := range r.linkList {
		if r.links[fi].symUntil > now {
			sc.symList = append(sc.symList, fi)
		}
	}
	sc.symSort.s, sc.symSort.ids = sc.symList, r.ids
	sort.Sort(&sc.symSort)
	for _, fi := range sc.symList {
		sc.symStamp[fi] = epoch
	}

	// Coverage: for each symmetric neighbor, the strict 2-hop nodes it
	// reaches (not us, not themselves symmetric neighbors).
	sc.thList = sc.thList[:0]
	sc.covOff = sc.covOff[:0]
	sc.covTH = sc.covTH[:0]
	for _, fi := range sc.symList {
		sc.covOff = append(sc.covOff, int32(len(sc.covTH)))
		for _, e := range r.twoHopOf[fi] {
			if e.until <= now {
				continue
			}
			ti := e.th
			if r.ids[ti] == me || sc.symStamp[ti] == epoch {
				continue
			}
			if sc.thStamp[ti] != epoch {
				sc.thStamp[ti] = epoch
				sc.thPos[ti] = int32(len(sc.thList))
				sc.thList = append(sc.thList, ti)
			}
			sc.covTH = append(sc.covTH, sc.thPos[ti])
		}
	}
	sc.covOff = append(sc.covOff, int32(len(sc.covTH)))

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
			r.mprStamp[sc.symList[sc.provLast[c]]] = epoch
		}
	}
	uncovered := nth
	for k, fi := range sc.symList {
		if r.mprStamp[fi] != epoch {
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
			if r.mprStamp[fi] == epoch {
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
		fi := sc.symList[best]
		r.mprStamp[fi] = epoch
		for _, c := range sc.covTH[sc.covOff[best]:sc.covOff[best+1]] {
			if !sc.covered[c] {
				sc.covered[c] = true
				uncovered--
			}
		}
	}

	for _, fi := range sc.symList { // symList is NodeID-sorted
		if r.mprStamp[fi] == epoch {
			r.mprList = append(r.mprList, r.ids[fi])
		}
	}
}

// denseComputeRoutes rebuilds the routing table (RFC 3626 §10): symmetric
// neighbors at distance 1, 2-hop tuples through distance-1 bases, then a
// lexicographic Dijkstra over the per-origin topology adjacency. All
// weights are ≥ 1 and labels are totally ordered by (cost, hops, next), so
// the result equals the oracle's relax-to-fixpoint outcome exactly.
func (r *Router) denseComputeRoutes(now sim.Time, epoch uint64) {
	sc := &r.scratch
	me := r.node.ID()
	r.routeEpoch = epoch
	sc.labeled = sc.labeled[:0]

	// Phase 1: symmetric neighbors at distance 1.
	for _, fi := range sc.symList {
		r.routeOf[fi] = routeEntry{next: r.ids[fi], hops: 1, cost: r.linkCost(&r.links[fi])}
		r.routeStamp[fi] = epoch
		sc.labeled = append(sc.labeled, fi)
	}

	// Phase 2: 2-hop tuples in sorted (neighbor, 2-hop) order. The base
	// must still be a distance-1 route when each tuple is visited — this
	// single pass is order-dependent, so the order is part of the shared
	// contract with the oracle.
	for _, fi := range sc.symList {
		for _, e := range r.twoHopOf[fi] {
			if e.until <= now || r.ids[e.th] == me {
				continue
			}
			base := r.routeOf[fi]
			if r.routeStamp[fi] != epoch || base.hops != 1 {
				continue
			}
			cand := routeEntry{next: r.ids[fi], hops: 2, cost: base.cost + 1}
			ti := e.th
			if r.routeStamp[ti] != epoch {
				r.routeStamp[ti] = epoch
				r.routeOf[ti] = cand
				sc.labeled = append(sc.labeled, ti)
			} else if lessRoute(cand, r.routeOf[ti]) {
				r.routeOf[ti] = cand
			}
		}
	}

	// Phase 3: Dijkstra over topology edges, seeded with every label so
	// far. Stale heap entries are skipped by comparing against the live
	// label; strictly positive weights make popped labels final.
	sc.heap = sc.heap[:0]
	for _, idx := range sc.labeled {
		e := r.routeOf[idx]
		djPush(&sc.heap, djNode{cost: e.cost, hops: int32(e.hops), next: e.next, idx: idx})
	}
	for len(sc.heap) > 0 {
		nd := djPop(&sc.heap)
		cur := r.routeOf[nd.idx]
		if r.routeStamp[nd.idx] != epoch ||
			cur.cost != nd.cost || int32(cur.hops) != nd.hops || cur.next != nd.next {
			continue // superseded while queued
		}
		for _, e := range r.topoOf[nd.idx] {
			if e.until <= now || r.ids[e.dest] == me {
				continue
			}
			w := 1.0
			if r.cfg.ETX && e.linkLQ > 0 {
				w = etxCost(e.linkLQ, e.linkLQ)
			}
			cand := routeEntry{next: cur.next, hops: cur.hops + 1, cost: cur.cost + w}
			di := e.dest
			if r.routeStamp[di] != epoch {
				r.routeStamp[di] = epoch
				r.routeOf[di] = cand
			} else if lessRoute(cand, r.routeOf[di]) {
				r.routeOf[di] = cand
			} else {
				continue
			}
			djPush(&sc.heap, djNode{cost: cand.cost, hops: int32(cand.hops), next: cand.next, idx: di})
		}
	}
}
