package check

import "cavenet/internal/netsim"

// The two next-hop query shapes the repo's routing protocols expose
// encode two different loop-freedom guarantees:
//
//   - Table (AODV, DYMO): sequence-numbered distance vector. The protocol
//     invariant is loop freedom across nodes at every instant — along any
//     next-hop chain the (destination sequence number, −hops) pair
//     strictly improves — so the harness walks the cross-node next-hop
//     graph and any cycle is a bug.
//
//   - Route (OLSR): link state. Each node's table is a shortest-path tree
//     over that node's *own* topology view; during convergence two nodes'
//     views may legitimately disagree, so transient cross-node micro-loops
//     are textbook behavior (a looping packet burns TTL, which the TTL
//     invariant audits). The per-node invariant that must always hold is
//     self-consistency: every route's next hop is itself a valid one-hop
//     route of the same table.
type routeQuerier interface {
	Route(dst netsim.NodeID) (netsim.NodeID, int, bool)
}

type tableQuerier interface {
	Table(dst netsim.NodeID) (netsim.NodeID, int, bool)
}

// Loops verifies the "no routing loops" invariant appropriate to each
// node's protocol: the cross-node walk for sequence-numbered tables, the
// per-table tree consistency for link-state tables (see above).
func Loops(w *netsim.World, report *Report) {
	n := w.NumNodes()
	query := make([]func(dst netsim.NodeID) (netsim.NodeID, int, bool), n)
	crossNode := true
	for i := 0; i < n; i++ {
		switch q := w.Node(i).Router().(type) {
		case routeQuerier:
			query[i] = q.Route
			crossNode = false
		case tableQuerier:
			query[i] = q.Table
		}
	}
	if crossNode {
		crossNodeWalk(n, query, report)
	} else {
		perTableTree(n, query, report)
	}
}

// crossNodeWalk follows next hops node to node from every (src, dst) pair;
// any revisit is a loop. A walk may legitimately end early at a node
// without a route (an incomplete table is not a loop); what it must never
// do is cycle.
func crossNodeWalk(n int, query []func(netsim.NodeID) (netsim.NodeID, int, bool), report *Report) {
	// stamp is an epoch-marked scratch: stamp[v] == walkID marks v as on
	// the current walk without clearing between the N² walks.
	stamp := make([]int, n)
	walkID := 0
	for src := 0; src < n; src++ {
		if query[src] == nil {
			continue
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			walkID++
			cur := src
			stamp[cur] = walkID
			for {
				if query[cur] == nil {
					break
				}
				next, _, ok := query[cur](netsim.NodeID(dst))
				if !ok {
					break // no route here: the walk terminates
				}
				if int(next) < 0 || int(next) >= n {
					report.Add("loops", "node %d routes to %d via out-of-world next hop %d", cur, dst, next)
					break
				}
				if int(next) == dst {
					break // reached the destination
				}
				if stamp[next] == walkID {
					report.Add("loops", "routing loop toward %d: node %d's next hop %d was already visited (walk from %d)",
						dst, cur, next, src)
					break
				}
				cur = int(next)
				stamp[cur] = walkID
			}
		}
	}
}

// perTableTree checks that each node's table is a self-consistent
// shortest-path tree: a one-hop route's next hop is the destination
// itself, and a multi-hop route's next hop is a valid one-hop route of
// the same table.
func perTableTree(n int, query []func(netsim.NodeID) (netsim.NodeID, int, bool), report *Report) {
	for src := 0; src < n; src++ {
		if query[src] == nil {
			continue
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			next, hops, ok := query[src](netsim.NodeID(dst))
			if !ok {
				continue
			}
			if int(next) < 0 || int(next) >= n {
				report.Add("loops", "node %d routes to %d via out-of-world next hop %d", src, dst, next)
				continue
			}
			if int(next) == src {
				report.Add("loops", "node %d routes to %d via itself", src, dst)
				continue
			}
			if hops < 1 {
				report.Add("loops", "node %d routes to %d in %d hops", src, dst, hops)
				continue
			}
			if hops == 1 {
				if int(next) != dst {
					report.Add("loops", "node %d's 1-hop route to %d goes via %d", src, dst, next)
				}
				continue
			}
			nn, nhops, nok := query[src](next)
			if !nok || nhops != 1 || nn != next {
				report.Add("loops", "node %d routes to %d via %d, which is not a 1-hop neighbor route (hops=%d ok=%v)",
					src, dst, next, nhops, nok)
			}
		}
	}
}

// routeWriter is a router whose route writes can be watched: AODV and DYMO,
// through netsim.Reactive.
type routeWriter interface {
	WatchRouteWrites(func(dst, next netsim.NodeID))
}

// WriteLoops checks the cross-node walk at the instant a loop can form,
// not only at the horizon. For AODV and DYMO the next-hop graph is what
// the routers' Table answers (Routes.Peek), and only a route write adds an
// edge to it: a deadline passing, a purge, a RERR, a broken link and a
// crash's fresh table only take edges away. So a cycle exists at some
// instant only if the write that added its last edge closed it. After
// each write that leaves node w's route to dst live via v, the walk from
// v through the other routers' tables toward dst must not reach w. One
// O(path) walk per write, reading without side effects: a checked run
// stays the unchecked one.
type WriteLoops struct {
	world  *netsim.World
	report *Report
}

// NewWriteLoops returns a write-time loop check reporting to report.
func NewWriteLoops(report *Report) *WriteLoops { return &WriteLoops{report: report} }

// Wrap returns factory with every router it builds that writes
// sequence-numbered routes watched, a router a crash rebuilds included.
func (l *WriteLoops) Wrap(factory netsim.RouterFactory) netsim.RouterFactory {
	return func(n *netsim.Node) netsim.Router {
		r := factory(n)
		if rw, ok := r.(routeWriter); ok {
			writer := n.ID()
			rw.WatchRouteWrites(func(dst, next netsim.NodeID) { l.wrote(writer, dst, next) })
		}
		return r
	}
}

// Bind names the world whose routers the walks read; it must come before
// the run.
func (l *WriteLoops) Bind(w *netsim.World) { l.world = w }

// wrote walks from next toward dst after writer's write. The walk ends
// at dst, at a router without a live route, or after as many hops as
// there are nodes (a cycle not through writer was reported by the write
// that closed it).
func (l *WriteLoops) wrote(writer, dst, next netsim.NodeID) {
	n := l.world.NumNodes()
	cur := next
	for hops := 0; cur != dst && hops < n; hops++ {
		if cur == writer {
			l.report.Add("loops", "t=%v: node %d's route to %d via %d closes a routing loop",
				l.world.Kernel.Now(), writer, dst, next)
			return
		}
		if int(cur) < 0 || int(cur) >= n {
			return
		}
		q, ok := l.world.Node(int(cur)).Router().(tableQuerier)
		if !ok {
			return
		}
		if cur, _, ok = q.Table(dst); !ok {
			return
		}
	}
}
