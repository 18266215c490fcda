package mobility

import (
	"math"
	"math/rand"

	"cavenet/internal/geometry"
)

// RandomWaypointConfig parameterizes the classical Random Waypoint model:
// every node picks a uniform destination in the area and a uniform speed in
// [VMin, VMax], travels there, optionally pauses, and repeats. The paper
// (§I, §IV-B) uses RW as the contrast case: it exhibits the velocity-decay
// problem that the CA model avoids.
type RandomWaypointConfig struct {
	Nodes int
	AreaX float64 // meters
	AreaY float64 // meters
	VMin  float64 // m/s; must be > 0 or the model famously never converges
	VMax  float64 // m/s
	Pause float64 // seconds at each waypoint
	// Interval is the trace sampling period in seconds (default 1).
	Interval float64
}

// RandomWaypointStationary simulates the RW model initialized in its
// stationary regime, following the "perfect simulation" construction of Le
// Boudec & Vojnović (the paper's reference [2]): trip speeds are sampled
// from the speed-stationary distribution (density ∝ 1/v on [vmin, vmax])
// and each node starts mid-trip at a uniform position along it. The
// returned mean-velocity series shows no decay — the fix for the pathology
// that RandomWaypoint exhibits.
func RandomWaypointStationary(cfg RandomWaypointConfig, duration float64, rnd *rand.Rand) (*SampledTrace, []float64) {
	return randomWaypoint(cfg, duration, rnd, true)
}

// RandomWaypoint simulates the RW model for duration seconds and returns a
// sampled trace together with the instantaneous mean-velocity series (one
// entry per sample), which makes the velocity decay of §IV-B directly
// observable.
func RandomWaypoint(cfg RandomWaypointConfig, duration float64, rnd *rand.Rand) (*SampledTrace, []float64) {
	return randomWaypoint(cfg, duration, rnd, false)
}

func randomWaypoint(cfg RandomWaypointConfig, duration float64, rnd *rand.Rand, stationary bool) (*SampledTrace, []float64) {
	var meanVel []float64
	src, err := newRandomWaypoint(cfg, duration, rnd, stationary, &meanVel)
	if err != nil {
		// Node-free configs produced an empty trace historically; keep that.
		if cfg.Interval <= 0 {
			cfg.Interval = 1
		}
		return &SampledTrace{Interval: cfg.Interval}, make([]float64, SampleCount(duration, cfg.Interval))
	}
	trace := Record(src)
	return trace, meanVel
}

type rwWalker struct {
	pos   geometry.Vec2
	dest  geometry.Vec2
	speed float64
	pause float64 // remaining pause time
}

// newRandomWaypoint builds the RW model as a row generator; meanVel
// accumulates the instantaneous mean velocity, one entry per produced
// sample (complete once every sample has been pulled, e.g. by Record).
func newRandomWaypoint(cfg RandomWaypointConfig, duration float64, rnd *rand.Rand, stationary bool, meanVel *[]float64) (*Stream, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 1
	}
	samples := SampleCount(duration, cfg.Interval)
	randPoint := func() geometry.Vec2 {
		return geometry.Vec2{X: rnd.Float64() * cfg.AreaX, Y: rnd.Float64() * cfg.AreaY}
	}
	randSpeed := func() float64 {
		return cfg.VMin + rnd.Float64()*(cfg.VMax-cfg.VMin)
	}
	// stationarySpeed samples from the time-stationary speed distribution
	// f(v) ∝ 1/v on [vmin, vmax] via inverse-transform sampling: slow trips
	// last longer, so a node observed at a random instant is more likely to
	// be on a slow trip.
	stationarySpeed := func() float64 {
		u := rnd.Float64()
		return cfg.VMin * math.Pow(cfg.VMax/cfg.VMin, u)
	}
	walkers := make([]rwWalker, cfg.Nodes)
	for i := range walkers {
		w := rwWalker{pos: randPoint(), dest: randPoint(), speed: randSpeed()}
		if stationary {
			// Start mid-trip with a stationary speed and a uniform fraction
			// of the trip already covered.
			w.speed = stationarySpeed()
			frac := rnd.Float64()
			w.pos = w.pos.Add(w.dest.Sub(w.pos).Scale(frac))
		}
		walkers[i] = w
	}
	fill := func(k int, row []geometry.Vec2) {
		vsum := 0.0
		for i := range walkers {
			w := &walkers[i]
			row[i] = w.pos
			if w.pause <= 0 {
				vsum += w.speed
			}
			// Advance by one interval.
			remain := cfg.Interval
			for remain > 0 {
				if w.pause > 0 {
					hold := w.pause
					if hold > remain {
						hold = remain
					}
					w.pause -= hold
					remain -= hold
					continue
				}
				d := w.pos.Dist(w.dest)
				travel := w.speed * remain
				if travel < d {
					dir := w.dest.Sub(w.pos).Scale(1 / d)
					w.pos = w.pos.Add(dir.Scale(travel))
					remain = 0
				} else {
					w.pos = w.dest
					if w.speed > 0 {
						remain -= d / w.speed
					} else {
						remain = 0
					}
					w.pause = cfg.Pause
					w.dest = randPoint()
					w.speed = randSpeed()
				}
			}
		}
		*meanVel = append(*meanVel, vsum/float64(cfg.Nodes))
	}
	return NewStream(StreamConfig{
		Nodes:    cfg.Nodes,
		Interval: cfg.Interval,
		Samples:  samples,
		Fill:     fill,
	})
}
