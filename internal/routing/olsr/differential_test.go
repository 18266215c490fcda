package olsr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// newBareRouter builds a single-node world whose router the tests drive
// directly through the message handlers.
func newBareRouter(tb testing.TB, cfg Config) (*netsim.World, *Router) {
	tb.Helper()
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  1,
		Seed:   1,
		Static: []geometry.Vec2{{}},
	}, func(n *netsim.Node) netsim.Router { return New(n, cfg) })
	if err != nil {
		tb.Fatal(err)
	}
	return w, w.Node(0).Router().(*Router)
}

// feedNodes is the number of peers feedRandomControlState invents (ids
// 1..feedNodes; the router under test is node 0).
const feedNodes = 25

// feedPlan shapes a feedRandomControlState run beyond its defaults; the
// zero value is four rounds at random sub-second gaps with nobody reading.
type feedPlan struct {
	rounds int
	// between is called with the kernel drained before every round and
	// returns that round's timestamp (> now), and whether the round only
	// repeats the previous one's messages — lifetime refreshes, immaterial
	// unless a tuple has lapsed since.
	between func(roundAts []sim.Time) (at sim.Time, refresh bool)
	// probe is called after every handler invocation, inside the round's
	// timestamp.
	probe func()
}

// feedRandomControlState drives the router through rounds of randomized
// HELLO/TC traffic, link failures and purges, exercising tuple creation,
// refresh, ANSN replacement and soft expiry. It returns the round
// timestamps, so callers can probe exactly at tuple-expiry boundaries.
func feedRandomControlState(w *netsim.World, r *Router, rnd *rand.Rand, etx bool, plan feedPlan) []sim.Time {
	const nodes = feedNodes
	if plan.rounds == 0 {
		plan.rounds = 4
	}
	if plan.between == nil {
		plan.between = func([]sim.Time) (sim.Time, bool) {
			return w.Kernel.Now() + sim.Time(rnd.Int63n(int64(sim.Second))) + 1, false
		}
	}
	if plan.probe == nil {
		plan.probe = func() {}
	}
	seq := uint16(0)
	randCode := func() LinkCode {
		return []LinkCode{LinkSym, LinkMPR, LinkAsym, LinkLost}[rnd.Intn(4)]
	}
	type sentTC struct {
		msg  TC
		from netsim.NodeID
	}
	var (
		roundAts []sim.Time
		hellos   []*Hello // the last fresh round's messages
		tcs      []sentTC
	)
	hello := func(msg *Hello) {
		r.handleHello(msg, msg.From)
		plan.probe()
	}
	tc := func(s sentTC) {
		seq++
		s.msg.Seq = seq
		r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 1 + rnd.Intn(4)}, &s.msg, s.from)
		plan.probe()
	}
	for round := 0; round < plan.rounds; round++ {
		at, refresh := plan.between(roundAts)
		roundAts = append(roundAts, at)
		w.Kernel.Schedule(at, func() {
			if refresh {
				for _, msg := range hellos {
					hello(msg)
				}
				for _, s := range tcs {
					tc(s)
				}
				return
			}
			hellos, tcs = hellos[:0], tcs[:0]
			for i := 1; i <= nodes; i++ {
				if rnd.Float64() < 0.7 {
					var links []HelloLink
					if rnd.Float64() < 0.8 {
						links = append(links, HelloLink{Neighbor: 0, Code: randCode(), LQ: rnd.Float64()})
					}
					for j := 1; j <= nodes; j++ {
						if j != i && rnd.Float64() < 0.25 {
							links = append(links, HelloLink{Neighbor: netsim.NodeID(j), Code: randCode(), LQ: rnd.Float64()})
						}
					}
					hellos = append(hellos, &Hello{From: netsim.NodeID(i), Links: links})
					hello(hellos[len(hellos)-1])
				}
				if rnd.Float64() < 0.5 {
					var adv []netsim.NodeID
					var lqs []float64
					for j := 1; j <= nodes; j++ {
						if j != i && rnd.Float64() < 0.3 {
							adv = append(adv, netsim.NodeID(j))
							lqs = append(lqs, rnd.Float64())
						}
					}
					if len(adv) == 0 {
						continue
					}
					msg := TC{Origin: netsim.NodeID(i), ANSN: uint16(rnd.Intn(4)), Advertised: adv}
					if etx {
						msg.LQs = lqs
					}
					tcs = append(tcs, sentTC{msg: msg, from: netsim.NodeID(rnd.Intn(nodes) + 1)})
					tc(tcs[len(tcs)-1])
				}
			}
			if rnd.Float64() < 0.3 {
				r.LinkFailure(netsim.NodeID(rnd.Intn(nodes)+1), &netsim.Packet{Kind: netsim.KindControl})
				plan.probe()
			}
			if rnd.Float64() < 0.5 {
				r.purge()
				plan.probe()
			}
		})
		w.Kernel.Run()
	}
	return roundAts
}

// TestDenseMatchesOracle asserts the acceptance contract of the dense
// kernels: across randomized topologies, routes, MPR sets and the HELLO/TC
// wire contents are bit-identical between the dense recompute and the
// retained map-based oracle.
func TestDenseMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		etx := seed >= 30
		t.Run(fmt.Sprintf("etx=%v/seed=%d", etx, seed), func(t *testing.T) {
			w, r := newBareRouter(t, Config{ETX: etx})
			roundAts := feedRandomControlState(w, r, rand.New(rand.NewSource(seed)), etx, feedPlan{})
			if seed%2 == 1 {
				// Odd seeds compare exactly at the third round's
				// NeighborHold boundary: tuples created there and not
				// refreshed since sit exactly on the `until <= now`
				// filter edge, while the final round's links are still
				// alive.
				w.Kernel.RunUntil(roundAts[2] + r.cfg.NeighborHold)
			}
			now := w.Kernel.Now()

			// Both sides read through flush (routesSnapshot, MPRSet): after
			// recomputeNow the dense kernels have been stamped, not run.
			r.cfg.OracleRecompute = false
			r.recomputeNow()
			denseRoutes := r.routesSnapshot()
			denseMPRs := r.MPRSet()
			denseHello := r.helloLinks(now)
			denseTC := r.makeTC(now)

			r.cfg.OracleRecompute = true
			r.recomputeNow()
			oracleRoutes := r.routesSnapshot()
			oracleMPRs := r.MPRSet()
			oracleHello := r.helloLinks(now)
			oracleTC := r.makeTC(now)

			if !reflect.DeepEqual(denseMPRs, oracleMPRs) {
				t.Fatalf("MPR sets diverge:\n dense: %v\noracle: %v", denseMPRs, oracleMPRs)
			}
			if !reflect.DeepEqual(denseRoutes, oracleRoutes) {
				for id, de := range denseRoutes {
					if oe, ok := oracleRoutes[id]; !ok || oe != de {
						t.Errorf("route %d: dense %+v oracle %+v (ok=%v)", id, de, oe, ok)
					}
				}
				for id := range oracleRoutes {
					if _, ok := denseRoutes[id]; !ok {
						t.Errorf("route %d: only in oracle", id)
					}
				}
				t.Fatalf("route tables diverge (%d vs %d entries)", len(denseRoutes), len(oracleRoutes))
			}
			if !reflect.DeepEqual(denseHello, oracleHello) {
				t.Fatalf("HELLO wire diverges:\n dense: %v\noracle: %v", denseHello, oracleHello)
			}
			if !reflect.DeepEqual(denseTC, oracleTC) {
				t.Fatalf("TC wire diverges:\n dense: %+v\noracle: %+v", denseTC, oracleTC)
			}
		})
	}
}

// controlSnapshot is everything a reader can observe of the recompute
// output at one instant, plus the wire contents derived from it.
type controlSnapshot struct {
	at     sim.Time
	mprs   []netsim.NodeID
	routes map[netsim.NodeID]routeEntry
	via    [feedNodes + 1]struct {
		next netsim.NodeID
		hops int
		ok   bool
	}
	hello []HelloLink
	tc    *TC
}

func readControl(r *Router) controlSnapshot {
	now := r.now()
	s := controlSnapshot{at: now, mprs: r.MPRSet(), routes: r.routesSnapshot()}
	for id := range s.via {
		v := &s.via[id]
		v.next, v.hops, v.ok = r.Route(netsim.NodeID(id))
	}
	s.hello = r.helloLinks(now)
	s.tc = r.makeTC(now)
	return s
}

// TestDeferredMatchesEagerTrajectory tests the lemma next to recomputeNow:
// materializing a stamp when somebody reads, evaluated at the stamp's τ,
// observes exactly what recomputing at τ did. Two routers get the same
// control stream and the same reads — inside a timestamp, between rounds
// with the stamp already taken, and after quiet stretches in which tuples
// valid at τ soft-expire — with most of the stream unread; the dense one
// defers, the oracle recomputes eagerly at every stamp. Round times land on
// earlier rounds' `until <= now` edges whenever one is within reach.
func TestDeferredMatchesEagerTrajectory(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		etx := seed >= 20
		t.Run(fmt.Sprintf("etx=%v/seed=%d", etx, seed), func(t *testing.T) {
			run := func(oracle bool) ([]controlSnapshot, *Router) {
				w, r := newBareRouter(t, Config{ETX: etx, OracleRecompute: oracle})
				reads := rand.New(rand.NewSource(seed + 1000))
				var log []controlSnapshot
				read := func() {
					log = append(log, readControl(r))
					if reads.Intn(3) == 0 {
						// The real reader: flushes, emits, and (ETX) closes
						// every link's hello window — the unreported mutation.
						r.sendHello()
					}
				}
				readProb := 0.0
				feedRandomControlState(w, r, rand.New(rand.NewSource(seed)), etx, feedPlan{
					rounds: 40,
					probe: func() {
						if reads.Float64() < readProb {
							read()
						}
					},
					between: func(roundAts []sim.Time) (sim.Time, bool) {
						// The previous round's stamp has been taken by now.
						if reads.Intn(8) == 0 {
							read()
						}
						if reads.Intn(8) == 0 {
							w.Kernel.RunUntil(w.Kernel.Now() + sim.Time(reads.Int63n(int64(4*sim.Second))))
							read()
						}
						readProb = []float64{0, 0, 0, 0, 0.02, 0.3}[reads.Intn(6)]
						now := w.Kernel.Now()
						at := now + sim.Time(reads.Int63n(int64(sim.Second))) + 1
						for _, prev := range roundAts {
							for _, hold := range []sim.Time{r.cfg.NeighborHold, r.cfg.TopologyHold} {
								if edge := prev + hold; edge > now && edge < at {
									at = edge
								}
							}
						}
						return at, reads.Intn(3) == 0
					},
				})
				log = append(log, readControl(r))
				return log, r
			}
			dense, dr := run(false)
			oracle, or := run(true)
			if len(dense) != len(oracle) {
				t.Fatalf("%d reads on the dense side, %d on the oracle's", len(dense), len(oracle))
			}
			for i := range dense {
				if !reflect.DeepEqual(dense[i], oracle[i]) {
					t.Fatalf("read %d of %d at %v diverges:\n dense: %+v\noracle: %+v", i, len(dense), dense[i].at, dense[i], oracle[i])
				}
			}
			if dr.recomputes != or.recomputes {
				t.Fatalf("stamp counts diverge: dense %d, oracle %d", dr.recomputes, or.recomputes)
			}
			if or.materialized != or.recomputes {
				t.Fatalf("oracle ran its kernels %d times for %d stamps; it must recompute eagerly", or.materialized, or.recomputes)
			}
			if dr.materialized >= dr.recomputes {
				t.Fatalf("dense ran its kernels %d times for %d stamps: no stamp went unread, nothing was deferred", dr.materialized, dr.recomputes)
			}
		})
	}
}

// TestRecomputeCoalescedPerTimestamp asserts the trigger contract: any
// number of control messages arriving in one kernel timestamp cause at
// most one recompute, and pure lifetime refreshes cause none at all.
func TestRecomputeCoalescedPerTimestamp(t *testing.T) {
	w, r := newBareRouter(t, Config{})
	w.Kernel.Schedule(0, func() {
		r.handleHello(&Hello{From: 1, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}}}, 1)
	})
	w.Kernel.Run()

	base := r.recomputes
	w.Kernel.Schedule(w.Kernel.Now()+sim.Second, func() {
		for i := 0; i < 5; i++ {
			msg := &TC{
				Origin:     netsim.NodeID(10 + i),
				ANSN:       1,
				Advertised: []netsim.NodeID{netsim.NodeID(20 + i)},
				Seq:        uint16(i + 1),
			}
			r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, msg, 1)
		}
	})
	w.Kernel.Run()
	if got := r.recomputes - base; got != 1 {
		t.Fatalf("5 TCs in one timestamp caused %d recomputes, want 1", got)
	}

	// A HELLO that only refreshes existing lifetimes is immaterial: no
	// recompute at all.
	base = r.recomputes
	w.Kernel.Schedule(w.Kernel.Now()+sim.Second, func() {
		r.handleHello(&Hello{From: 1, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}}}, 1)
	})
	w.Kernel.Run()
	if got := r.recomputes - base; got != 0 {
		t.Fatalf("pure refresh hello caused %d recomputes, want 0", got)
	}

	// Flush interleaving: a read flushes mid-slot, then another material
	// message re-dirties the router. The recompute already pending for
	// this timestamp must stand down — the rebuild coalesces to now+1.
	base = r.recomputes
	at := w.Kernel.Now() + sim.Second
	w.Kernel.Schedule(at, func() {
		tc := func(seq uint16, origin netsim.NodeID) *TC {
			return &TC{Origin: origin, ANSN: 1, Advertised: []netsim.NodeID{netsim.NodeID(90 + seq)}, Seq: 100 + seq}
		}
		r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, tc(1, 40), 1) // schedules event at `at`
		r.Route(40)                                                                // flush: recompute #1 at `at`
		r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, tc(2, 41), 1) // re-dirty: schedules at+1
	})
	w.Kernel.Run()
	if got := r.recomputes - base; got != 2 {
		t.Fatalf("flush interleaving caused %d recomputes, want 2 (one per timestamp)", got)
	}
	if r.lastRecompute != at+1 {
		t.Fatalf("second recompute ran at %v, want %v (the stale pending event must stand down)", r.lastRecompute, at+1)
	}

	// Demand-driven materialization: stamps nobody reads run no kernel, the
	// first read runs exactly one (as of the last stamp), the next none.
	r.flush()
	base, ran := r.recomputes, r.materialized
	const k = 3
	for i := 0; i < k; i++ {
		seq := uint16(i)
		w.Kernel.Schedule(w.Kernel.Now()+sim.Second, func() {
			r.handleHello(&Hello{From: 1, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}}}, 1) // keep the link up
			msg := &TC{Origin: 1, ANSN: 2 + seq, Advertised: []netsim.NodeID{60 + netsim.NodeID(seq)}, Seq: 200 + seq}
			r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, msg, 1)
		})
		w.Kernel.Run()
	}
	if got := r.recomputes - base; got != k {
		t.Fatalf("%d material timestamps caused %d stamps, want %d", k, got, k)
	}
	if got := r.materialized - ran; got != 0 {
		t.Fatalf("%d unread stamps ran the kernels %d times, want 0", k, got)
	}
	if next, hops, ok := r.Route(60 + k - 1); !ok || next != 1 || hops != 2 {
		t.Fatalf("first read: route to %d = next %d hops %d ok %v, want the last stamp's (via 1, 2 hops)", 60+k-1, next, hops, ok)
	}
	if got := r.materialized - ran; got != 1 {
		t.Fatalf("first read ran the kernels %d times, want 1", got)
	}
	if _, _, ok := r.Route(60); ok {
		t.Fatal("route to 60 survived the ANSN that withdrew it")
	}
	r.MPRSet()
	if got := r.materialized - ran; got != 1 {
		t.Fatalf("second read ran the kernels again (%d runs in total, want 1)", got)
	}
	if st := r.TableStats(); st.Recomputes != r.recomputes || st.Materialized != r.materialized {
		t.Fatalf("TableStats reports %d stamps / %d kernel runs, want %d / %d",
			st.Recomputes, st.Materialized, r.recomputes, r.materialized)
	}
}

// TestRecomputeZeroAlloc asserts the steady-state allocation contract of
// both halves of the dense recompute: the stamp and the kernels flush runs.
func TestRecomputeZeroAlloc(t *testing.T) {
	for _, etx := range []bool{false, true} {
		t.Run(fmt.Sprintf("etx=%v", etx), func(t *testing.T) {
			w, r := newBareRouter(t, Config{ETX: etx})
			feedRandomControlState(w, r, rand.New(rand.NewSource(7)), etx, feedPlan{})
			r.flush() // size the scratch
			ran := r.materialized
			if allocs := testing.AllocsPerRun(100, func() {
				r.dirty = true
				r.recomputeNow()
			}); allocs != 0 {
				t.Fatalf("recompute stamp allocates %.1f objects/op, want 0", allocs)
			}
			if r.materialized != ran {
				t.Fatalf("stamping ran the kernels %d times, want 0", r.materialized-ran)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				r.dirty = true
				r.flush()
			}); allocs != 0 {
				t.Fatalf("dense recompute allocates %.1f objects/op, want 0", allocs)
			}
			if got := r.materialized - ran; got != 101 { // AllocsPerRun warms up once
				t.Fatalf("100 flushes of a dirty router ran the kernels %d times, want 101", got)
			}
		})
	}
}

// TestLinkFailureFailsOverSameRecompute: after MAC retry exhaustion on the
// preferred next hop, traffic to a 2-hop destination fails over to the
// alternative relay in the same recompute — no waiting out the hello
// timeout.
func TestLinkFailureFailsOverSameRecompute(t *testing.T) {
	// Diamond: 0 ↔ {1, 2} ↔ 3, with 0 ↔ 3 out of range.
	positions := []geometry.Vec2{
		{X: 0, Y: 0},
		{X: 150, Y: 80},
		{X: 150, Y: -80},
		{X: 300, Y: 0},
	}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: 4, Seed: 1, Static: positions,
	}, func(n *netsim.Node) netsim.Router { return New(n, Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	w.Run(8 * sim.Second)
	r0 := w.Node(0).Router().(*Router)
	next, hops, ok := r0.Route(3)
	if !ok || next != 1 || hops != 2 {
		t.Fatalf("precondition: route to 3 = next %d hops %d ok %v, want via 1 (deterministic tie-break)", next, hops, ok)
	}

	// MAC feedback: unicast to 1 exhausted its retries.
	before := w.Kernel.Now()
	r0.LinkFailure(1, &netsim.Packet{Kind: netsim.KindControl})
	next, hops, ok = r0.Route(3)
	if !ok || next != 2 || hops != 2 {
		t.Fatalf("after link failure: route to 3 = next %d hops %d ok %v, want failover via 2", next, hops, ok)
	}
	if w.Kernel.Now() != before {
		t.Fatal("failover must not require simulated time to pass")
	}
	// The dead neighbor itself is rerouted through the surviving relay.
	if next, _, ok = r0.Route(1); !ok || next != 2 {
		t.Fatalf("route to failed neighbor = %d/%v, want via 2", next, ok)
	}
}
