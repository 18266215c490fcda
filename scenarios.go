package cavenet

import (
	"cavenet/internal/scenario"
	"cavenet/internal/scenario/check"
)

// This file exposes the scenario registry: the catalogue of first-class
// workloads (multi-lane highways, signalized corridors, rush-hour ramps,
// sparse partitioned networks, ...) that replaces hand-rolled experiment
// mains. Every registered scenario is runnable here and from the
// `cavenet scenario` CLI, sweepable over protocols × seeds, and checkable
// under the cross-protocol invariant harness.

// ScenarioFlow is one CBR flow of a scenario workload.
type ScenarioFlow = scenario.Flow

// InvariantReport lists the invariant violations of a checked run.
type InvariantReport = check.Report

// ScenarioNames lists the registered workload catalogue in sorted order.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns a copy of the named registered scenario.
func ScenarioByName(name string) (Scenario, bool) { return scenario.Get(name) }

// RegisterScenario adds a workload to the registry.
func RegisterScenario(s Scenario) error { return scenario.Register(s) }

// ScenarioSource generates the scenario's mobility as a streaming source:
// the CA road steps live as positions are pulled, retaining O(nodes)
// state — the substrate that runs the 10k-vehicle metro workload.
func ScenarioSource(s Scenario) (MobilitySource, error) { return scenario.BuildSource(s) }

// RunScenarioChecked runs the scenario under the invariant harness:
// packet conservation, TTL discipline, routing-loop freedom, CA sanity
// and the spec's metric expectations.
func RunScenarioChecked(s Scenario) (*Result, *InvariantReport, error) {
	return scenario.RunChecked(s)
}
