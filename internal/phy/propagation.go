// Package phy models the wireless physical layer of CAVENET's CPS block:
// propagation (two-ray ground, as in Table I, plus free-space and log-normal
// shadowing for the paper's future-work experiments), a shared broadcast
// channel, and per-radio reception state with carrier sensing, collisions
// and capture.
//
// The constants default to the classic ns-2 wireless configuration the
// paper inherits: 914 MHz radio, 1.5 m antennas, 250 m receive range and
// 550 m carrier-sense range.
package phy

import (
	"math"
	"math/rand"

	"cavenet/internal/geometry"
)

// Speed of light, m/s, used for propagation delay and wavelength.
const lightSpeed = 299_792_458.0

// Propagation computes received power for a transmit power and geometry.
type Propagation interface {
	// RxPower returns the received power in watts when transmitting txW
	// watts from 'from' to 'to'.
	RxPower(txW float64, from, to geometry.Vec2) float64
}

// DistanceMonotone is the optional contract behind the channel's
// spatial-grid culling. A model that reports true guarantees that for any
// distance d beyond a reference distance r, RxPower at d is *strictly
// below* RxPower at r — i.e. power strictly decreases past every range of
// interest. "Never increases" is not enough: a model whose power plateaus
// at the carrier-sense threshold beyond the CS range would satisfy
// non-increase yet still reach radios the grid would cull. Under the
// strict contract, any radio farther away than the carrier-sense range is
// guaranteed below the derived carrier-sense threshold and can be skipped
// without evaluating the model. Models that do not implement the
// interface, or report false (e.g. shadowing with a random component),
// put the channel on the brute-force path.
type DistanceMonotone interface {
	DistanceMonotone() bool
}

// propIsDistanceMonotone reports whether the model opted into
// distance-based culling.
func propIsDistanceMonotone(m Propagation) bool {
	dm, ok := m.(DistanceMonotone)
	return ok && dm.DistanceMonotone()
}

// DistancePower is the optional fast path for models whose received power
// depends on geometry only through the tx→rx distance: AtDistance resolves
// the model's constants once for a transmit power and returns power as a
// function of distance, which the channel calls per receiver. It must equal
// RxPower(txW, from, to) at from.Dist(to) bit for bit — implementers define
// RxPower through it.
type DistancePower interface {
	AtDistance(txW float64) func(d float64) float64
}

// FreeSpace is the Friis free-space model:
// Pr = Pt·Gt·Gr·λ² / ((4π·d)²·L).
type FreeSpace struct {
	// Gt, Gr are antenna gains (default 1).
	Gt, Gr float64
	// L is the system loss factor (default 1).
	L float64
	// FreqHz is the carrier frequency (default 914 MHz).
	FreqHz float64
}

func (m FreeSpace) params() (gt, gr, l, lambda float64) {
	gt, gr, l = m.Gt, m.Gr, m.L
	if gt == 0 {
		gt = 1
	}
	if gr == 0 {
		gr = 1
	}
	if l == 0 {
		l = 1
	}
	f := m.FreqHz
	if f == 0 {
		f = 914e6
	}
	return gt, gr, l, lightSpeed / f
}

// DistanceMonotone implements the culling contract: Friis power decays
// strictly with distance.
func (m FreeSpace) DistanceMonotone() bool { return true }

// friis is FreeSpace with its constants resolved for one transmit power.
type friis struct {
	txW float64
	num float64 // Pt·Gt·Gr·λ²
	l   float64
}

func (m FreeSpace) resolve(txW float64) friis {
	gt, gr, l, lambda := m.params()
	return friis{txW: txW, num: txW * gt * gr * lambda * lambda, l: l}
}

func (f friis) at(d float64) float64 {
	if d == 0 {
		return f.txW
	}
	den := 4 * math.Pi * d
	return f.num / (den * den * f.l)
}

// AtDistance implements DistancePower.
func (m FreeSpace) AtDistance(txW float64) func(d float64) float64 { return m.resolve(txW).at }

// RxPower implements Propagation.
func (m FreeSpace) RxPower(txW float64, from, to geometry.Vec2) float64 {
	return m.resolve(txW).at(from.Dist(to))
}

// TwoRayGround is the two-ray ground-reflection model used by the paper
// (Table I): beyond the crossover distance dc = 4π·ht·hr/λ,
// Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L); below dc it falls back to free space,
// exactly as ns-2 does.
type TwoRayGround struct {
	// Ht, Hr are antenna heights above ground in meters (default 1.5).
	Ht, Hr float64
	// Gt, Gr are antenna gains (default 1).
	Gt, Gr float64
	// L is the system loss factor (default 1).
	L float64
	// FreqHz is the carrier frequency (default 914 MHz).
	FreqHz float64
}

func (m TwoRayGround) params() (ht, hr float64, fs FreeSpace) {
	ht, hr = m.Ht, m.Hr
	if ht == 0 {
		ht = 1.5
	}
	if hr == 0 {
		hr = 1.5
	}
	fs = FreeSpace{Gt: m.Gt, Gr: m.Gr, L: m.L, FreqHz: m.FreqHz}
	return ht, hr, fs
}

// Crossover reports the distance where the model switches from free-space
// to fourth-power attenuation.
func (m TwoRayGround) Crossover() float64 {
	ht, hr, fs := m.params()
	_, _, _, lambda := fs.params()
	return 4 * math.Pi * ht * hr / lambda
}

// DistanceMonotone implements the culling contract: both branches decay
// with distance and the model is continuous at the crossover.
func (m TwoRayGround) DistanceMonotone() bool { return true }

// twoRay is TwoRayGround with its constants resolved for one transmit power.
type twoRay struct {
	near      friis // below the crossover; also carries L
	crossover float64
	num       float64 // Pt·Gt·Gr·ht²·hr²
}

func (m TwoRayGround) resolve(txW float64) twoRay {
	ht, hr, fs := m.params()
	gt, gr, _, _ := fs.params()
	return twoRay{fs.resolve(txW), m.Crossover(), txW * gt * gr * ht * ht * hr * hr}
}

func (t twoRay) at(d float64) float64 {
	if d < t.crossover {
		return t.near.at(d)
	}
	return t.num / (d * d * d * d * t.near.l)
}

// AtDistance implements DistancePower.
func (m TwoRayGround) AtDistance(txW float64) func(d float64) float64 { return m.resolve(txW).at }

// RxPower implements Propagation.
func (m TwoRayGround) RxPower(txW float64, from, to geometry.Vec2) float64 {
	return m.resolve(txW).at(from.Dist(to))
}

// Shadowing is the log-normal shadowing model of the paper's future-work
// references [18][19]: mean path loss with exponent Beta relative to a
// reference distance, plus a zero-mean Gaussian deviation of SigmaDB
// decibels sampled per (transmission, receiver) pair.
type Shadowing struct {
	// Beta is the path-loss exponent (default 2.7, a typical outdoor value).
	Beta float64
	// SigmaDB is the shadowing standard deviation in dB (default 4).
	SigmaDB float64
	// RefDist is the reference distance d0 in meters (default 1).
	RefDist float64
	// Ref computes the mean power at RefDist (default free space at 914 MHz).
	Ref Propagation
	// Rnd supplies the Gaussian deviations; must be non-nil unless SigmaDB
	// is zero.
	Rnd *rand.Rand
}

// DistanceMonotone implements the culling contract. With a random source
// the sampled deviation can lift far-away receivers above threshold, so
// culling is only sound in the deterministic (mean path loss) setting.
func (m Shadowing) DistanceMonotone() bool { return m.Rnd == nil }

// RxPower implements Propagation.
func (m Shadowing) RxPower(txW float64, from, to geometry.Vec2) float64 {
	beta := m.Beta
	if beta == 0 {
		beta = 2.7
	}
	d0 := m.RefDist
	if d0 == 0 {
		d0 = 1
	}
	ref := m.Ref
	if ref == nil {
		ref = FreeSpace{}
	}
	d := from.Dist(to)
	if d < d0 {
		d = d0
	}
	pr0 := ref.RxPower(txW, geometry.Vec2{}, geometry.Vec2{X: d0})
	meanDB := 10*math.Log10(pr0) - 10*beta*math.Log10(d/d0)
	sigma := m.SigmaDB
	if sigma == 0 {
		sigma = 4
	}
	dev := 0.0
	if m.Rnd != nil {
		dev = m.Rnd.NormFloat64() * sigma
	}
	return math.Pow(10, (meanDB+dev)/10)
}

// PowerAtRange computes the received power at the given distance under the
// model — used to derive receive/carrier-sense thresholds from the paper's
// 250 m / 550 m ranges instead of hard-coding magic watts.
func PowerAtRange(m Propagation, txW, rangeM float64) float64 {
	return m.RxPower(txW, geometry.Vec2{}, geometry.Vec2{X: rangeM})
}
