package check

import "cavenet/internal/netsim"

// The two route-table shapes the repo's routing protocols expose encode
// two different loop-freedom guarantees, and each is checked at the
// instant it can break:
//
//   - Table (AODV, DYMO): sequence-numbered distance vector. The protocol
//     invariant is loop freedom across nodes at every instant — along any
//     next-hop chain the (destination sequence number, −hops) pair
//     strictly improves — so a cycle in the cross-node next-hop graph is a
//     bug. Only a route write adds an edge to that graph, so the walk runs
//     after each write (wrote).
//
//   - Tree (OLSR): link state. Each node's table is a shortest-path tree
//     over that node's *own* topology view (RFC 3626 §10); during
//     convergence two nodes' views may legitimately disagree, so transient
//     cross-node micro-loops are textbook behavior (a looping packet burns
//     TTL, which the TTL invariant audits). The per-node invariant that
//     must always hold is self-consistency: every route's next hop is
//     itself a valid one-hop route of the same table. Only a build
//     rewrites the table, so the check runs at the end of each build
//     (built).
type tableQuerier interface {
	Table(dst netsim.NodeID) (netsim.NodeID, int, bool)
}

// routeWriter is a router whose route writes can be watched: AODV and DYMO,
// through netsim.Reactive.
type routeWriter interface {
	WatchRouteWrites(func(dst, next netsim.NodeID))
}

// routeBuilder is a router whose routing-table builds can be watched, and
// whose table can be read without building it: OLSR.
type routeBuilder interface {
	WatchRouteBuilds(func())
	EachRoute(visit func(dst, next netsim.NodeID, hops int))
}

// WriteLoops checks the "no routing loops" invariant at the instants a
// loop can form, reading without side effects: a checked run stays the
// unchecked one.
//
// For AODV and DYMO the next-hop graph is what the routers' Table answers
// (Routes.Peek), and only a route write adds an edge to it: a deadline
// passing, a purge, a RERR, a broken link and a crash's fresh table only
// take edges away. So a cycle exists at some instant only if the write
// that added its last edge closed it. After each write that leaves node
// w's route to dst live via v, the walk from v through the other routers'
// tables toward dst must not reach w: one O(path) walk per write.
//
// For OLSR each build's table must be a self-consistent tree, and the
// check visits the table's own entries once per build.
type WriteLoops struct {
	world  *netsim.World
	report *Report

	// builds counts, per node, the table builds of its current OLSR router
	// the tree check inspected; a router a crash rebuilds starts afresh,
	// as its TableStats do.
	builds []uint64
	// oneHop[v] == epoch marks v as a 1-hop route of the table under
	// inspection; a new epoch clears the marks.
	oneHop []uint64
	epoch  uint64
}

// NewWriteLoops returns a loop check reporting to report.
func NewWriteLoops(report *Report) *WriteLoops { return &WriteLoops{report: report} }

// Wrap returns factory with every router it builds that writes
// sequence-numbered routes or builds link-state tables watched, a router
// a crash rebuilds included.
func (l *WriteLoops) Wrap(factory netsim.RouterFactory) netsim.RouterFactory {
	return func(n *netsim.Node) netsim.Router {
		r := factory(n)
		id := n.ID()
		switch w := r.(type) {
		case routeWriter:
			w.WatchRouteWrites(func(dst, next netsim.NodeID) { l.wrote(id, dst, next) })
		case routeBuilder:
			for int(id) >= len(l.builds) {
				l.builds = append(l.builds, 0)
			}
			l.builds[id] = 0
			w.WatchRouteBuilds(func() { l.built(id, w) })
		}
		return r
	}
}

// Bind names the world whose routers the checks read; it must come before
// the run.
func (l *WriteLoops) Bind(w *netsim.World) {
	l.world = w
	l.oneHop = make([]uint64, w.NumNodes())
}

// Settle reports a violation unless the tree check inspected routeRuns
// builds: the route-kernel runs of the OLSR routers alive at the horizon
// (olsr.TableStats.RouteRuns, summed). It comes after the run.
func (l *WriteLoops) Settle(routeRuns uint64) {
	var seen uint64
	for _, b := range l.builds {
		seen += b
	}
	if seen != routeRuns {
		l.report.Add("loops", "the tree check inspected %d routing-table builds, the routers ran %d", seen, routeRuns)
	}
}

// inWorld reports whether v names one of the world's nodes.
func (l *WriteLoops) inWorld(v netsim.NodeID) bool { return int(v) >= 0 && int(v) < len(l.oneHop) }

// wrote walks from next toward dst after writer's write. The walk ends
// at dst, at a router without a live route, or after as many hops as
// there are nodes (a cycle not through writer was reported by the write
// that closed it).
func (l *WriteLoops) wrote(writer, dst, next netsim.NodeID) {
	n := l.world.NumNodes()
	from, cur := writer, next
	for hops := 0; cur != dst && hops < n; hops++ {
		if cur == writer {
			l.report.Add("loops", "t=%v: node %d's route to %d via %d closes a routing loop",
				l.world.Kernel.Now(), writer, dst, next)
			return
		}
		if !l.inWorld(cur) {
			l.report.Add("loops", "t=%v: node %d routes to %d via out-of-world next hop %d",
				l.world.Kernel.Now(), from, dst, cur)
			return
		}
		q, ok := l.world.Node(int(cur)).Router().(tableQuerier)
		if !ok {
			return
		}
		from = cur
		if cur, _, ok = q.Table(dst); !ok {
			return
		}
	}
}

// built checks node's freshly built table: a one-hop route's next hop is
// the destination itself, and a multi-hop route's next hop is a valid
// one-hop route of the same table. One pass marks the one-hop routes, a
// second applies the rules to every entry.
func (l *WriteLoops) built(node netsim.NodeID, t routeBuilder) {
	l.builds[node]++
	l.epoch++
	t.EachRoute(func(dst, next netsim.NodeID, hops int) {
		if hops == 1 && next == dst && l.inWorld(dst) {
			l.oneHop[dst] = l.epoch
		}
	})
	now := l.world.Kernel.Now()
	t.EachRoute(func(dst, next netsim.NodeID, hops int) {
		switch {
		case !l.inWorld(next):
			l.report.Add("loops", "t=%v: node %d routes to %d via out-of-world next hop %d", now, node, dst, next)
		case next == node:
			l.report.Add("loops", "t=%v: node %d routes to %d via itself", now, node, dst)
		case hops < 1:
			l.report.Add("loops", "t=%v: node %d routes to %d in %d hops", now, node, dst, hops)
		case hops == 1:
			if next != dst {
				l.report.Add("loops", "t=%v: node %d's 1-hop route to %d goes via %d", now, node, dst, next)
			}
		case l.oneHop[next] != l.epoch:
			l.report.Add("loops", "t=%v: node %d routes to %d via %d, which is not a 1-hop neighbor route", now, node, dst, next)
		}
	})
}
