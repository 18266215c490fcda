package cavenet

import (
	"cavenet/internal/core"
	"cavenet/internal/mobility"
)

// This file exposes the multi-lane highway analysis behind the paper's
// Fig. 1 discussion: lanes affect connectivity (relays on other lanes fill
// gaps) and interference (opposite-lane transmissions collide).
//
// Multi-lane highway *assembly* moved to the scenario registry (see
// scenarios.go and `cavenet scenario list`): build traces with
// CircuitTrace from a registered or custom Scenario instead of
// hand-rolling lane configs.

// ConnectivityComponents groups the trace's nodes, at time tsec, into
// radio-connectivity components for the given transmission range.
func ConnectivityComponents(tr *mobility.SampledTrace, tsec, rangeMeters float64) [][]int {
	return core.ConnectivityComponents(tr, tsec, rangeMeters)
}

// LargestComponentFraction reports the share of nodes in the largest
// connectivity component at time tsec.
func LargestComponentFraction(tr *mobility.SampledTrace, tsec, rangeMeters float64) float64 {
	return core.LargestComponentFraction(tr, tsec, rangeMeters)
}

// InterferenceConfig parameterizes the Fig. 1-b opposite-lane interference
// experiment.
type InterferenceConfig = core.InterferenceConfig

// InterferenceResult compares a flow's delivery with the opposite lane
// silent vs. transmitting.
type InterferenceResult = core.InterferenceResult

// Interference runs the Fig. 1-b experiment: the same two-lane mobility
// twice, once with the opposite lane silent and once with it carrying its
// own traffic, and reports the delivery and MAC-retry impact.
func Interference(cfg InterferenceConfig) (InterferenceResult, error) {
	return core.InterferenceExperiment(cfg)
}
