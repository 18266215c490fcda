package ca

import "fmt"

// Signal models a lane crosspoint — the paper's second mobility parameter
// ("the intersection of lanes ... the crosspoint is the bottleneck for the
// lane", §III), which the paper explicitly leaves out and we implement as
// the natural extension: a traffic signal that periodically blocks one
// site. While red, no vehicle may enter or cross the site, so a queue
// forms behind it exactly like at a real intersection.
type Signal struct {
	// Site is the blocked cell index.
	Site int
	// GreenSteps and RedSteps set the cycle; both must be positive.
	GreenSteps, RedSteps int
	// Offset shifts the cycle phase (0 starts green).
	Offset int
}

// RedAt reports whether the signal shows red at the given step.
func (s Signal) RedAt(step int) bool {
	cycle := s.GreenSteps + s.RedSteps
	phase := (step + s.Offset) % cycle
	if phase < 0 {
		phase += cycle
	}
	return phase >= s.GreenSteps
}

func (s Signal) validate(length int) error {
	if s.Site < 0 || s.Site >= length {
		return fmt.Errorf("ca: signal site %d outside lane [0,%d)", s.Site, length)
	}
	if s.GreenSteps <= 0 || s.RedSteps <= 0 {
		return fmt.Errorf("ca: signal cycle must have positive green (%d) and red (%d)",
			s.GreenSteps, s.RedSteps)
	}
	return nil
}

// AddSignal installs a traffic signal on the lane. Signals apply from the
// next step onward: a reader keeps seeing the gaps of the signals that were
// there when the lane last moved.
func (l *Lane) AddSignal(s Signal) error {
	if err := s.validate(l.cfg.Length); err != nil {
		return err
	}
	l.readGaps()
	l.signals = append(l.signals, s)
	return nil
}

// Signals returns a copy of the installed signals.
func (l *Lane) Signals() []Signal {
	return append([]Signal(nil), l.signals...)
}

// applySignals caps each vehicle's gap so that nobody enters a red site
// this step. Called from refreshGaps after the car-following gaps are set.
func (l *Lane) applySignals() {
	ring, length := l.cfg.Boundary == RingBoundary, int32(l.cfg.Length)
	for si := range l.signals {
		sig := &l.signals[si]
		if !sig.RedAt(l.step) {
			continue
		}
		for k, p := range l.pos {
			dist := int32(sig.Site) - p
			if ring && dist < 0 {
				dist += length
			}
			// dist < 0: the signal is behind the vehicle on an open lane;
			// dist == 0: it is already on the site and may leave.
			if dist > 0 {
				l.gap[k] = min(l.gap[k], dist-1)
			}
		}
	}
}
