// Package check is the cross-protocol invariant harness: it wraps any
// scenario run and asserts properties that must hold for *every* workload
// and every routing protocol, independent of the metrics a particular
// experiment cares about:
//
//   - packet conservation — every originated data packet is delivered,
//     dropped with a recorded reason, or still physically held in a MAC
//     queue or a route-discovery buffer when the run ends; nothing
//     vanishes, nothing is delivered twice;
//   - TTL monotonicity — TTL decreases by exactly one per forwarding hop,
//     is never negative, and TTL-expiry drops happen exactly at zero;
//   - no routing loops — the next-hop walk from every node toward every
//     destination terminates;
//   - CA sanity — the cellular-automaton mobility never puts two vehicles
//     in one cell, never teleports a vehicle, and never exceeds the
//     ring-lane flow capacity;
//   - scenario expectations — per-scenario metric floors (minimum PDR,
//     delivery counts) declared in the scenario spec.
//
// The harness reports violations instead of panicking, so a failing
// property surfaces with every broken instance, not just the first.
package check

import (
	"fmt"
	"sort"
	"strings"
)

// Violation is one broken invariant instance.
type Violation struct {
	// Check names the invariant family ("conservation", "ttl", "loops",
	// "ca", "trace", "expect").
	Check string
	// Detail describes the broken instance.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Check + ": " + v.Detail }

// maxPerCheck bounds how many violations one invariant family records; a
// systematically broken invariant would otherwise bury the report (and the
// memory) under millions of identical lines.
const maxPerCheck = 16

// Report accumulates violations from all the checks wrapped around one
// scenario run.
type Report struct {
	violations []Violation
	perCheck   map[string]int
	truncated  map[string]int
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{perCheck: make(map[string]int), truncated: make(map[string]int)}
}

// Add records a violation, keeping at most maxPerCheck per invariant
// family (the rest are counted and summarized by String).
func (r *Report) Add(check, format string, args ...any) {
	r.perCheck[check]++
	if r.perCheck[check] > maxPerCheck {
		r.truncated[check]++
		return
	}
	r.violations = append(r.violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// Ok reports whether no invariant was violated.
func (r *Report) Ok() bool { return len(r.violations) == 0 }

// Violations returns the recorded violations (capped per family; use
// Total for the uncapped count).
func (r *Report) Violations() []Violation { return r.violations }

// Total reports the number of violations observed, including those
// truncated beyond the per-family recording cap — the number to use when
// comparing the severity of runs.
func (r *Report) Total() int {
	n := 0
	for _, c := range r.perCheck {
		n += c
	}
	return n
}

// String lists every violation, one per line, with truncation summaries.
func (r *Report) String() string {
	if r.Ok() {
		return "all invariants hold"
	}
	var b strings.Builder
	for _, v := range r.violations {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	checks := make([]string, 0, len(r.truncated))
	for check := range r.truncated {
		checks = append(checks, check)
	}
	sort.Strings(checks)
	for _, check := range checks {
		fmt.Fprintf(&b, "%s: ... and %d more\n", check, r.truncated[check])
	}
	return b.String()
}
