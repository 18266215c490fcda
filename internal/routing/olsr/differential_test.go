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
	// settle is called after every kernel event (the eager driver's hook).
	settle func()
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
	if plan.settle == nil {
		plan.settle = func() {}
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
		for w.Kernel.Step() {
			plan.settle()
		}
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
				w.Kernel.RunUntil(roundAts[2] + neighborHold)
			}
			now := w.Kernel.Now()

			// Both sides read through materialize (routesSnapshot, MPRSet):
			// after recomputeNow the dense kernels have been stamped, not
			// run; on the oracle side materializeOracle has run the map
			// kernels already.
			r.recomputeNow()
			denseRoutes := r.routesSnapshot()
			denseMPRs := r.MPRSet()
			denseHello := r.helloLinks(now)
			denseTC := r.makeTC(now)

			r.recomputeNow()
			r.materializeOracle(t)
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

// readControl reads the routing table before the MPR set, so on the
// deferring side a stamp's MPR part is often built after its routes were,
// and the route lookups that follow must still see them.
func readControl(r *Router) controlSnapshot {
	now := r.now()
	routes := r.routesSnapshot()
	s := controlSnapshot{at: now, mprs: r.MPRSet(), routes: routes}
	for id := range s.via {
		v := &s.via[id]
		v.next, v.hops, v.ok = r.Route(netsim.NodeID(id))
	}
	s.hello = r.helloLinks(now)
	s.tc = r.makeTC(now)
	return s
}

// side is one router of a deferred-versus-eager differential: the
// production router, which defers its kernels to the first read of a stamp,
// or the eager driver, which runs the map-based oracle the moment a stamp is
// taken — after the kernel event that took it, or at the read that did.
type side struct {
	tb    testing.TB
	w     *netsim.World
	r     *Router
	eager bool
}

func newSide(tb testing.TB, etx, eager bool) *side {
	w, r := newBareRouter(tb, Config{ETX: etx})
	return &side{tb: tb, w: w, r: r, eager: eager}
}

// settle runs after every kernel event.
func (s *side) settle() {
	if s.eager {
		s.r.settleOracle(s.tb)
	}
}

// beforeRead runs before every read.
func (s *side) beforeRead() {
	if s.eager {
		s.r.materializeOracle(s.tb)
	}
}

// drain runs the kernel dry, one event at a time.
func (s *side) drain() {
	for s.w.Kernel.Step() {
		s.settle()
	}
}

// runUntil is Kernel.RunUntil one event at a time: the events due by end,
// then the clock set to end (by a marker event both sides schedule alike).
func (s *side) runUntil(end sim.Time) {
	done := false
	s.w.Kernel.Schedule(end, func() { done = true })
	for !done && s.w.Kernel.Step() {
		s.settle()
	}
}

func (s *side) read() controlSnapshot {
	s.beforeRead()
	return readControl(s.r)
}

// sendHello is the real reader: it materializes, emits, and (ETX) closes
// every link's hello window, the one mutation never reported. When a stamp
// is pending it is that stamp's first read, so the windows must close after
// its materialize.
func (s *side) sendHello() {
	s.beforeRead()
	s.r.sendHello()
}

// compareSides fails on the first read the two sides saw differently, and
// requires the deferral to be the only difference in the work done: the
// same stamps, both parts of every one of them run eagerly, and (if
// wantDeferred) each part of some of them never run by the deferring side.
func compareSides(t *testing.T, deferred, eager []controlSnapshot, dr, er *Router, wantDeferred bool) {
	t.Helper()
	if len(deferred) != len(eager) {
		t.Fatalf("%d reads on the deferring side, %d on the eager one", len(deferred), len(eager))
	}
	for i := range deferred {
		if !reflect.DeepEqual(deferred[i], eager[i]) {
			t.Fatalf("read %d of %d at %v diverges:\ndeferred: %+v\n   eager: %+v", i, len(deferred), deferred[i].at, deferred[i], eager[i])
		}
	}
	if dr.recomputes != er.recomputes {
		t.Fatalf("stamp counts diverge: deferred %d, eager %d", dr.recomputes, er.recomputes)
	}
	if er.mprRuns != er.recomputes || er.routeRuns != er.recomputes {
		t.Fatalf("the eager driver built the MPR set %d times and the routes %d times for %d stamps; it must recompute both at every stamp",
			er.mprRuns, er.routeRuns, er.recomputes)
	}
	if wantDeferred && dr.mprRuns >= dr.recomputes {
		t.Fatalf("deferred side built the MPR set %d times for %d stamps: no stamp's MPR part went unread, nothing was deferred", dr.mprRuns, dr.recomputes)
	}
	if wantDeferred && dr.routeRuns >= dr.recomputes {
		t.Fatalf("deferred side built the routes %d times for %d stamps: no stamp's routes went unread, nothing was deferred", dr.routeRuns, dr.recomputes)
	}
}

// TestDeferredMatchesEagerTrajectory tests the lemma next to recomputeNow:
// materializing a stamp when somebody reads, evaluated at the stamp's τ,
// observes exactly what recomputing at τ did. Two routers get the same
// control stream and the same reads — inside a timestamp, between rounds
// with the stamp already taken, and after quiet stretches in which tuples
// valid at τ soft-expire — with most of the stream unread; the production
// router defers, the eager driver runs the map-based oracle at every stamp.
// A HELLO emission is sometimes a stamp's first read, so under ETX its
// hello windows close between that stamp and its materialization. Round
// times land on earlier rounds' `until <= now` edges whenever one is within
// reach.
func TestDeferredMatchesEagerTrajectory(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		etx := seed >= 20
		t.Run(fmt.Sprintf("etx=%v/seed=%d", etx, seed), func(t *testing.T) {
			run := func(eager bool) ([]controlSnapshot, *Router) {
				s := newSide(t, etx, eager)
				reads := rand.New(rand.NewSource(seed + 1000))
				var log []controlSnapshot
				read := func() {
					order := reads.Intn(3)
					if order == 0 {
						s.sendHello()
					}
					log = append(log, s.read())
					if order == 1 {
						s.sendHello()
					}
				}
				readProb := 0.0
				feedRandomControlState(s.w, s.r, rand.New(rand.NewSource(seed)), etx, feedPlan{
					rounds: 40,
					probe: func() {
						if reads.Float64() < readProb {
							read()
						}
					},
					settle: s.settle,
					between: func(roundAts []sim.Time) (sim.Time, bool) {
						// The previous round's stamp has been taken by now.
						if reads.Intn(8) == 0 {
							read()
						}
						if reads.Intn(8) == 0 {
							s.runUntil(s.w.Kernel.Now() + sim.Time(reads.Int63n(int64(4*sim.Second))))
							// Reported mutations between the stamp and its
							// read: the purge ticker, a MAC failure report.
							if reads.Intn(2) == 0 {
								s.r.purge()
							}
							if reads.Intn(4) == 0 {
								s.r.LinkFailure(netsim.NodeID(1+reads.Intn(feedNodes)), &netsim.Packet{Kind: netsim.KindControl})
							}
							read()
						}
						readProb = []float64{0, 0, 0, 0, 0.02, 0.3}[reads.Intn(6)]
						now := s.w.Kernel.Now()
						at := now + sim.Time(reads.Int63n(int64(sim.Second))) + 1
						for _, prev := range roundAts {
							for _, hold := range []sim.Time{neighborHold, topologyHold} {
								if edge := prev + hold; edge > now && edge < at {
									at = edge
								}
							}
						}
						return at, reads.Intn(3) == 0
					},
				})
				log = append(log, s.read())
				return log, s.r
			}
			deferred, dr := run(false)
			eager, er := run(true)
			compareSides(t, deferred, eager, dr, er, true)
		})
	}
}

// FuzzDeferredMatchesEager hands the lemma at recomputeNow to the fuzzer: a
// byte string is a control stream played to the deferring router and to the
// eager driver in lockstep, and any read on which they part ways — or a
// stamp count that differs — is a finding. Wired into `make fuzz-smoke`;
// hunt with:
//
//	go test ./internal/routing/olsr -fuzz FuzzDeferredMatchesEager
//
// The first byte's low bit turns ETX on; the rest are three-byte ops
// (op, a, b) over peers 1..fuzzPeers, all at the kernel's current instant
// unless they pass time:
//
//	op%8: 0 HELLO from peer a — its link to us coded by a>>3&7 (Sym, MPR,
//	      Asym, Lost; 4–7: no link), b's low six bits the peers it hears
//	      symmetrically (MPR-coded when b's top bit is set)
//	      1 TC originated by peer a, relayed by peer a>>3, ANSN b>>6,
//	      advertising b's low six bits
//	      2 link failure toward peer a · 3 purge · 4 and 7 quiet gap of
//	      a<<8|b units (op>>6: 1 ns, 1 ms, 10 ms, 100 ms; the holds are
//	      3 000 ms and 6 000 ms) · 5 read · 6 HELLO emission
func FuzzDeferredMatchesEager(f *testing.F) {
	// ETX: peers 1 and 2 both reach 3; a hello window closes on both links
	// while 1 is heard, then 2 alone is heard and a stamp is pending when
	// the next window closes — the emission is that stamp's first read.
	f.Add([]byte{1, 0, 0, 4, 0, 1, 4, 0x44, 0, 10, 6, 0, 0, 0, 1, 4, 0x44, 0, 10, 6, 0, 0, 5, 0, 0})
	// Hop count: a triangle, a TC from 3 beyond it relayed by 1, a failure,
	// and a gap to the first links' exact neighbor-hold edge.
	f.Add([]byte{0, 0, 0, 2, 0, 1, 1, 1, 2, 8, 5, 0, 0, 2, 0, 0, 0x44, 0x0b, 0xb8, 5, 0, 0, 3, 0, 0, 5, 0, 0})
	// A stamp left unread while the link it saw expires and is purged.
	f.Add([]byte{0, 0, 0, 4, 0x44, 0, 10, 0x44, 0x0b, 0xb8, 3, 0, 0, 5, 0, 0})
	// A stamp left unread when the MAC reports the link failed.
	f.Add([]byte{0, 0, 0, 4, 0x44, 0, 10, 2, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		etx := data[0]&1 != 0
		sides := [2]*side{newSide(t, etx, false), newSide(t, etx, true)}
		var logs [2][]controlSnapshot
		seq := uint16(0)
		units := [4]sim.Time{sim.Nanosecond, sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond}
		peer := func(x byte) netsim.NodeID { return netsim.NodeID(1 + int(x)%fuzzPeers) }
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			if op%8 == 1 {
				seq++
			}
			for i, s := range sides {
				switch op % 8 {
				case 0:
					from := peer(a)
					var links []HelloLink
					if c := a >> 3 & 7; c < 4 {
						links = append(links, HelloLink{Neighbor: 0, Code: []LinkCode{LinkSym, LinkMPR, LinkAsym, LinkLost}[c]})
					}
					code := LinkSym
					if b&0x80 != 0 {
						code = LinkMPR
					}
					for j := 0; j < fuzzPeers; j++ {
						if id := netsim.NodeID(j + 1); b>>j&1 != 0 && id != from {
							links = append(links, HelloLink{Neighbor: id, Code: code})
						}
					}
					s.r.handleHello(&Hello{From: from, Links: links}, from)
				case 1:
					origin := peer(a)
					msg := &TC{Origin: origin, ANSN: uint16(b >> 6), Seq: seq}
					for j := 0; j < fuzzPeers; j++ {
						if id := netsim.NodeID(j + 1); b>>j&1 != 0 && id != origin {
							msg.Advertised = append(msg.Advertised, id)
							if etx {
								msg.LQs = append(msg.LQs, float64(1+(j+int(a>>6))%4)/4)
							}
						}
					}
					if len(msg.Advertised) > 0 {
						s.r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 2}, msg, peer(a>>3))
					}
				case 2:
					s.r.LinkFailure(peer(a), &netsim.Packet{Kind: netsim.KindControl})
				case 3:
					s.r.purge()
				case 4, 7:
					s.runUntil(s.w.Kernel.Now() + sim.Time(int(a)<<8|int(b))*units[op>>6])
				case 5:
					logs[i] = append(logs[i], s.read())
				case 6:
					s.sendHello()
				}
			}
			if op%8 == 5 {
				compareSides(t, logs[0], logs[1], sides[0].r, sides[1].r, false)
			}
		}
		for i, s := range sides {
			s.drain()
			logs[i] = append(logs[i], s.read())
		}
		compareSides(t, logs[0], logs[1], sides[0].r, sides[1].r, false)
	})
}

// fuzzPeers is the number of peers FuzzDeferredMatchesEager's ops name.
const fuzzPeers = 6

// TestRecomputeCoalescedPerTimestamp asserts the trigger contract: any
// number of control messages arriving in one kernel timestamp cause at
// most one recompute, and pure lifetime refreshes cause none at all.
func TestRecomputeCoalescedPerTimestamp(t *testing.T) {
	w, r := newBareRouter(t, Config{})
	w.Kernel.Schedule(0, func() {
		r.handleHello(&Hello{From: 1, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}}}, 1)
	})
	for w.Kernel.Step() {
	}

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
	for w.Kernel.Step() {
	}
	if got := r.recomputes - base; got != 1 {
		t.Fatalf("5 TCs in one timestamp caused %d recomputes, want 1", got)
	}

	// A HELLO that only refreshes existing lifetimes is immaterial: no
	// recompute at all.
	base = r.recomputes
	w.Kernel.Schedule(w.Kernel.Now()+sim.Second, func() {
		r.handleHello(&Hello{From: 1, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}}}, 1)
	})
	for w.Kernel.Step() {
	}
	if got := r.recomputes - base; got != 0 {
		t.Fatalf("pure refresh hello caused %d recomputes, want 0", got)
	}

	// Read interleaving: a read stamps mid-slot, then another material
	// message re-dirties the router. The recompute already pending for
	// this timestamp must stand down — the rebuild coalesces to now+1.
	base = r.recomputes
	at := w.Kernel.Now() + sim.Second
	w.Kernel.Schedule(at, func() {
		tc := func(seq uint16, origin netsim.NodeID) *TC {
			return &TC{Origin: origin, ANSN: 1, Advertised: []netsim.NodeID{netsim.NodeID(90 + seq)}, Seq: 100 + seq}
		}
		r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, tc(1, 40), 1) // schedules event at `at`
		r.Route(40)                                                                // read: recompute #1 at `at`
		r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, tc(2, 41), 1) // re-dirty: schedules at+1
	})
	for w.Kernel.Step() {
	}
	if got := r.recomputes - base; got != 2 {
		t.Fatalf("read interleaving caused %d recomputes, want 2 (one per timestamp)", got)
	}
	if r.lastRecompute != at+1 {
		t.Fatalf("second recompute ran at %v, want %v (the stale pending event must stand down)", r.lastRecompute, at+1)
	}

	// Demand-driven materialization, per part: stamps nobody reads run no
	// kernel; the first route read builds the last stamp's routes and not
	// its MPR set, the MPR read after it the MPR set alone, and a second
	// read of either part nothing.
	r.materialize(partMPR | partRoutes)
	base, mprRan, routeRan := r.recomputes, r.mprRuns, r.routeRuns
	runs := func(when string, wantMPR, wantRoutes uint64) {
		t.Helper()
		if m, rt := r.mprRuns-mprRan, r.routeRuns-routeRan; m != wantMPR || rt != wantRoutes {
			t.Fatalf("%s: %d MPR runs and %d route runs in total, want %d and %d", when, m, rt, wantMPR, wantRoutes)
		}
	}
	const k = 3
	for i := 0; i < k; i++ {
		seq := uint16(i)
		w.Kernel.Schedule(w.Kernel.Now()+sim.Second, func() {
			r.handleHello(&Hello{From: 1, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}}}, 1) // keep the link up
			msg := &TC{Origin: 1, ANSN: 2 + seq, Advertised: []netsim.NodeID{60 + netsim.NodeID(seq)}, Seq: 200 + seq}
			r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 4}, msg, 1)
		})
		for w.Kernel.Step() {
		}
	}
	if got := r.recomputes - base; got != k {
		t.Fatalf("%d material timestamps caused %d stamps, want %d", k, got, k)
	}
	runs(fmt.Sprintf("%d unread stamps", k), 0, 0)
	if next, hops, ok := r.Route(60 + k - 1); !ok || next != 1 || hops != 2 {
		t.Fatalf("first read: route to %d = next %d hops %d ok %v, want the last stamp's (via 1, 2 hops)", 60+k-1, next, hops, ok)
	}
	runs("first route read", 0, 1)
	if _, _, ok := r.Route(60); ok {
		t.Fatal("route to 60 survived the ANSN that withdrew it")
	}
	r.MPRSet()
	runs("MPR read after it", 1, 1)
	// The MPR run left the routes it did not build alone: the neighbor's
	// distance-1 route is still there.
	if next, hops, ok := r.Route(1); !ok || next != 1 || hops != 1 {
		t.Fatalf("after the MPR run: route to 1 = next %d hops %d ok %v, want the direct link", next, hops, ok)
	}
	r.MPRSet()
	runs("second read of either part", 1, 1)
	if st := r.TableStats(); st.Recomputes != r.recomputes || st.MPRRuns != r.mprRuns || st.RouteRuns != r.routeRuns {
		t.Fatalf("TableStats reports %d stamps / %d MPR runs / %d route runs, want %d / %d / %d",
			st.Recomputes, st.MPRRuns, st.RouteRuns, r.recomputes, r.mprRuns, r.routeRuns)
	}
}

// TestHelloBuildsRoutesOnlyUnderETX: a HELLO emission reads the MPR set.
// A router whose stamps are read by emissions alone never builds its
// routing table with ETX off; with ETX on, every emission that finds a
// stamp pending builds the routes too, because the hello windows it closes
// move the link costs they are made of.
func TestHelloBuildsRoutesOnlyUnderETX(t *testing.T) {
	for _, etx := range []bool{false, true} {
		t.Run(fmt.Sprintf("etx=%v", etx), func(t *testing.T) {
			w, r := newBareRouter(t, Config{ETX: etx})
			reads := rand.New(rand.NewSource(11))
			hellos := 0
			feedRandomControlState(w, r, rand.New(rand.NewSource(3)), etx, feedPlan{
				rounds: 20,
				probe: func() {
					if reads.Intn(8) == 0 {
						r.sendHello()
						hellos++
					}
				},
			})
			r.sendHello()
			if r.mprRuns == 0 || r.mprRuns >= r.recomputes {
				t.Fatalf("%d emissions built the MPR set %d times for %d stamps; want some stamps built, some left unread",
					hellos+1, r.mprRuns, r.recomputes)
			}
			want := uint64(0)
			if etx {
				want = r.mprRuns
			}
			if r.routeRuns != want {
				t.Fatalf("%d emissions built the MPR set %d times and the routes %d times, want %d route runs",
					hellos+1, r.mprRuns, r.routeRuns, want)
			}
		})
	}
}

// TestRecomputeZeroAlloc asserts the steady-state allocation contract of
// both halves of the dense recompute: the stamp and the kernels
// materialize runs.
func TestRecomputeZeroAlloc(t *testing.T) {
	for _, etx := range []bool{false, true} {
		t.Run(fmt.Sprintf("etx=%v", etx), func(t *testing.T) {
			w, r := newBareRouter(t, Config{ETX: etx})
			feedRandomControlState(w, r, rand.New(rand.NewSource(7)), etx, feedPlan{})
			both := partMPR | partRoutes
			r.materialize(both) // size the scratch
			mprRan, routeRan := r.mprRuns, r.routeRuns
			if allocs := testing.AllocsPerRun(100, func() {
				r.dirty = true
				r.recomputeNow()
			}); allocs != 0 {
				t.Fatalf("recompute stamp allocates %.1f objects/op, want 0", allocs)
			}
			if r.mprRuns != mprRan || r.routeRuns != routeRan {
				t.Fatalf("stamping ran the kernels %d+%d times, want 0", r.mprRuns-mprRan, r.routeRuns-routeRan)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				r.dirty = true
				r.materialize(both)
			}); allocs != 0 {
				t.Fatalf("dense recompute allocates %.1f objects/op, want 0", allocs)
			}
			if m, rt := r.mprRuns-mprRan, r.routeRuns-routeRan; m != 101 || rt != 101 { // AllocsPerRun warms up once
				t.Fatalf("100 reads of a dirty router built the MPR set %d times and the routes %d times, want 101 each", m, rt)
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

// routesSnapshot materializes the route table as a map (tests only).
func (r *Router) routesSnapshot() map[netsim.NodeID]routeEntry {
	r.materialize(partRoutes)
	out := make(map[netsim.NodeID]routeEntry)
	if r.routeEpoch == 0 {
		return out
	}
	for i := int32(0); i < r.slots.Len(); i++ {
		if s := r.slot(i); s.routeStamp == r.routeEpoch {
			out[s.id] = s.route
		}
	}
	return out
}
