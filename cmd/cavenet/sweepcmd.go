package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cavenet/internal/scenario"
)

// parseProtocolList resolves a -protocols value against the scenario
// registry's protocol set, so a protocol added there is sweepable here.
func parseProtocolList(s string) ([]scenario.Protocol, error) {
	if strings.EqualFold(s, "all") {
		return scenario.AllProtocols(), nil
	}
	var out []scenario.Protocol
	for _, name := range strings.Split(s, ",") {
		p, err := scenario.ParseProtocol(strings.ToLower(strings.TrimSpace(name)))
		if err != nil {
			return nil, badUsage("%v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdSweep(args []string) error {
	fs := newFlagSet("sweep")
	protocol := fs.String("protocols", "all", "comma list of aodv,olsr,dymo,gpsr, or all")
	nodesFlag := fs.String("nodes", "30", "comma list of vehicle counts (the density axis)")
	senders := fs.Int("senders", 8, "CBR senders: nodes 1..N to node 0 (Table I: 8)")
	circuit := fs.Float64("circuit", 3000, "circuit length in meters (Table I: 3000)")
	simTime := fs.Float64("time", 100, "simulated seconds per trial (Table I: 100)")
	trials := fs.Int("trials", 20, "replications per grid point (the paper's ensembles use 20)")
	seed := fs.Int64("seed", 1, "root seed; trial t of density d forks seed->d->t")
	workers := fs.Int("workers", 0, "worker goroutines (0 = one per core); any value gives bit-identical output")
	format := fs.String("format", "csv", "csv or json")
	output := fs.String("o", "", "write to this file instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// Validate the render knobs and the whole grid before the sweep
	// runs, not after.
	outFormat, err := parseFormat(*format, "csv", "json")
	if err != nil {
		return err
	}
	protocols, err := parseProtocolList(*protocol)
	if err != nil {
		return err
	}
	nodes, err := parseIntList(*nodesFlag)
	if err != nil {
		return badUsage("-nodes: %v", err)
	}
	// The paper's density axis: N vehicles on the same circuit, i.e. one
	// Table I spec per count, run without the invariant harness.
	specs := make([]scenario.Spec, len(nodes))
	for i, n := range nodes {
		if specs[i], err = table1Spec(n, *circuit, *simTime, *senders); err != nil {
			return err
		}
	}
	grid, err := scenario.NewGrid(scenario.SweepConfig{
		Specs:     specs,
		Protocols: protocols,
		Trials:    *trials,
		Seed:      *seed,
	})
	if err != nil {
		return badUsage("%v", err)
	}
	rows, err := grid.Run(*workers)
	if err != nil {
		return err
	}

	out, err := openOutput(*output)
	if err != nil {
		return err
	}
	if err := writeDensitySweep(out, outFormat, densityRows(rows, len(protocols), *circuit)); err != nil {
		out.Close()
		return err
	}
	// A close failure on a file is a truncated table: report it.
	return out.Close()
}

// densityRow is the `cavenet sweep` view of one grid row: the scenario
// axis read as vehicle density on the command's circuit.
type densityRow struct {
	scenario.SweepRow
	DensityPerKM float64 `json:"densityPerKm"`
}

// densityRows re-orders the grid's scenario-major rows protocol-major
// (one curve per protocol, densities in the order given) and derives the
// density column.
func densityRows(rows []scenario.SweepRow, protocols int, circuitM float64) []densityRow {
	out := make([]densityRow, 0, len(rows))
	for pi := 0; pi < protocols; pi++ {
		for i := pi; i < len(rows); i += protocols {
			out = append(out, densityRow{rows[i], float64(rows[i].Nodes) / (circuitM / 1000)})
		}
	}
	return out
}

// writeDensitySweep renders the density-sweep table with every write
// error-checked: a closed pipe or full disk fails the command instead of
// silently truncating the output.
func writeDensitySweep(w io.Writer, format string, pts []densityRow) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(pts)
	}
	if _, err := fmt.Fprintln(w, "# density × protocol sweep; every metric is mean over trials with a 95% CI half-width"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "protocol,nodes,densityPerKm,trials,pdr,pdrCI95,goodput_bps,goodputCI95_bps,delay_s,delayCI95_s,ctrlPackets,ctrlPacketsCI95,macRetries,macRetriesCI95"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%d,%.4f,%.4f,%.1f,%.1f,%.5f,%.5f,%.1f,%.1f,%.1f,%.1f\n",
			p.Protocol, p.Nodes, p.DensityPerKM, p.Trials,
			p.PDR.Mean, p.PDR.CI95,
			p.GoodputBPS.Mean, p.GoodputBPS.CI95,
			p.DelaySec.Mean, p.DelaySec.CI95,
			p.ControlPackets.Mean, p.ControlPackets.CI95,
			p.MACRetries.Mean, p.MACRetries.CI95); err != nil {
			return err
		}
	}
	return nil
}
