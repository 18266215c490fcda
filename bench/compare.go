package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return nil, fmt.Errorf("bench: %s holds no sets", path)
	}
	return &r, nil
}

// Verdicts of one workload x end-to-end metric pairing.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges the change's runs (b) against the parent's (a) by the
// choosing-metrics guide: a regression is a median worse by more than the
// bound; where the run-to-run spread is wider than the bound the pairing
// is unresolved unless the two sides do not overlap at all; an
// improvement needs every run of the change to beat every run of the
// parent and the medians to differ by more than the parent's own
// quartile spread. It is a screen: a gain is claimed from ten alternating
// pairs (see README.md), not from this table.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	worse := (mb - ma) / ma // positive = the change is worse
	if !lowerBetter {
		worse = -worse
	}
	beats := func(x, y float64) bool { // x is better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
			allWorse = allWorse && beats(y, x)
		}
	}
	spreadA, spreadB := spread(a), spread(b)
	if (spreadA > bound || spreadB > bound) && !allBetter && !allWorse {
		return verdictUnresolved, worse
	}
	switch {
	case worse > bound:
		return verdictRegressed, worse
	case allBetter && -worse > spreadA:
		return verdictImproved, worse
	}
	return verdictWithin, worse
}

// compareRecords prints, for every set the two records share (same
// position, same seed), one row per workload x end-to-end metric with its
// verdict, then the exact work counts and result digests that differ. A
// deterministic simulator leaves those identical unless the change alters
// the simulated model, which no speed or simplicity change may do; so it
// reports true — regressed — for any such difference (more invariant
// violations among them), as for a metric past its bound or a higher
// error rate.
func compareRecords(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	if a.Seconds != b.Seconds {
		return false, fmt.Errorf("bench: the records' runs measured for %g s and %g s", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "parent %s (%s, calib %.4f s)\nchange %s (%s, calib %.4f s)\n",
		pathA, a.Commit, a.Sets[0].CalibS.Median, pathB, b.Commit, b.Sets[0].CalibS.Median)
	regressed := false
	compared := 0
	for i := range a.Sets {
		if i >= len(b.Sets) || a.Sets[i].Seed != b.Sets[i].Seed {
			continue
		}
		compared++
		sa, sb := &a.Sets[i], &b.Sets[i]
		fmt.Fprintf(out, "\nset %d, seed %d\n%-16s %-12s %12s %12s %8s %7s  %s\n", i, sa.Seed,
			"workload", "metric", "parent", "change", "worse", "bound", "verdict")
		for _, wa := range sa.Workloads {
			wb := sb.workload(wa.Name)
			if wb == nil {
				continue
			}
			for _, m := range e2eDecls {
				ea, eb := wa.E2E[m.Name], wb.E2E[m.Name]
				if ea == nil || eb == nil {
					continue
				}
				v, worse := verdict(ea.Values, eb.Values, m.Better == "lower", m.Bound)
				regressed = regressed || v == verdictRegressed
				fmt.Fprintf(out, "%-16s %-12s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n",
					wa.Name, m.Name, ea.Median, eb.Median, worse*100, m.Bound*100, v)
			}
			v := verdictWithin
			if wb.ErrorRate > wa.ErrorRate {
				v, regressed = verdictRegressed, true
			}
			fmt.Fprintf(out, "%-16s %-12s %12.6g %12.6g %8s %7s  %s\n", wa.Name, "error_rate", wa.ErrorRate, wb.ErrorRate, "", "any", v)
		}
		fmt.Fprintln(out, "\nexact work counts that differ (the change alters the simulated model; regressed):")
		differ := 0
		for _, wa := range sa.Workloads {
			wb := sb.workload(wa.Name)
			if wb == nil {
				continue
			}
			for _, m := range layerDecls {
				if !m.Exact || wa.Layers[m.Name].Value == wb.Layers[m.Name].Value {
					continue
				}
				differ++
				fmt.Fprintf(out, "%-16s %-28s %14.6g -> %.6g\n", wa.Name, m.Name, wa.Layers[m.Name].Value, wb.Layers[m.Name].Value)
			}
			if wa.Digest != wb.Digest {
				differ++
				fmt.Fprintf(out, "%-16s %-28s %14.14s -> %.14s\n", wa.Name, "result digest", wa.Digest, wb.Digest)
			}
		}
		if differ == 0 {
			fmt.Fprintln(out, "none")
		}
		regressed = regressed || differ > 0
	}
	if compared == 0 {
		return false, fmt.Errorf("bench: the records share no set with the same seed")
	}
	return regressed, nil
}
