package fault

import (
	"sort"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Resilience summarizes how traffic fared against the fault plan: delivery
// ratio during vs. outside merged fault windows, and how quickly the
// network re-converged (first data delivery) after each recovery.
type Resilience struct {
	// Windows is the number of merged fault windows in the plan.
	Windows int `json:"windows"`
	// DowntimeNodeSec is the plan's total node-seconds of downtime.
	DowntimeNodeSec float64 `json:"downtimeNodeSec"`
	// SentDuring/SentOutside split originations by whether the packet was
	// created inside a fault window; Delivered* likewise (classified by
	// origination time, so a packet sent during a blackout but delivered
	// after it still counts against the during-window ratio).
	SentDuring       uint64 `json:"sentDuring"`
	SentOutside      uint64 `json:"sentOutside"`
	DeliveredDuring  uint64 `json:"deliveredDuring"`
	DeliveredOutside uint64 `json:"deliveredOutside"`
	// PDRDuring/PDROutside are the corresponding delivery ratios (0 when
	// nothing was sent in the class).
	PDRDuring  float64 `json:"pdrDuring"`
	PDROutside float64 `json:"pdrOutside"`
	// Recoveries counts NodeUp events; Reconverged counts those recoveries
	// that were followed by at least one data delivery before the run (or
	// the next recovery accounting) ended, and MeanReconvergeSec averages
	// the delay from recovery to that first delivery.
	Recoveries        int     `json:"recoveries"`
	Reconverged       int     `json:"reconverged"`
	MeanReconvergeSec float64 `json:"meanReconvergeSec"`
}

// Meter observes a world run and classifies traffic against a fault plan.
// Install Observe with World.Observe, then call Result after the run.
type Meter struct {
	windows    []Window
	recoveries []sim.Time
	ri         int // next recovery awaiting its first post-recovery delivery
	reconvSum  float64
	reconv     int
	res        Resilience
}

// NewMeter prepares a meter for the plan over [0, horizon].
func NewMeter(p Plan, horizon sim.Time) *Meter {
	m := &Meter{
		windows:    p.Windows(horizon),
		recoveries: p.Recoveries(),
	}
	m.res.Windows = len(m.windows)
	m.res.DowntimeNodeSec = p.DowntimeNodeSec(horizon)
	m.res.Recoveries = len(m.recoveries)
	return m
}

// during reports whether t falls inside a merged fault window.
func (m *Meter) during(t sim.Time) bool {
	i := sort.Search(len(m.windows), func(i int) bool { return m.windows[i].To > t })
	return i < len(m.windows) && m.windows[i].From <= t
}

// Observe classifies one data-plane event; install it with World.Observe.
func (m *Meter) Observe(e netsim.PacketEvent) {
	switch e.Kind {
	case netsim.Sent:
		if m.during(e.Packet.CreatedAt) {
			m.res.SentDuring++
		} else {
			m.res.SentOutside++
		}
	case netsim.Delivered:
		if m.during(e.Packet.CreatedAt) {
			m.res.DeliveredDuring++
		} else {
			m.res.DeliveredOutside++
		}
		// Recoveries are sorted; the streaming index credits each one
		// with the first delivery anywhere in the network at or after
		// it — the coarse "data flows again" re-convergence signal.
		for m.ri < len(m.recoveries) && m.recoveries[m.ri] <= e.At {
			m.reconvSum += (e.At - m.recoveries[m.ri]).Seconds()
			m.reconv++
			m.ri++
		}
	}
}

// Result finalizes and returns the resilience summary.
func (m *Meter) Result() Resilience {
	r := m.res
	if r.SentDuring > 0 {
		r.PDRDuring = float64(r.DeliveredDuring) / float64(r.SentDuring)
	}
	if r.SentOutside > 0 {
		r.PDROutside = float64(r.DeliveredOutside) / float64(r.SentOutside)
	}
	r.Reconverged = m.reconv
	if m.reconv > 0 {
		r.MeanReconvergeSec = m.reconvSum / float64(m.reconv)
	}
	return r
}
