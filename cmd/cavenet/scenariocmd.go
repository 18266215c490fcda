package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"cavenet/internal/fault"
	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

// cmdScenario dispatches the scenario-registry subcommands.
func cmdScenario(args []string) error {
	return scenarioMain(os.Stdout, args)
}

// scenarioMain is cmdScenario writing to w (golden tests capture it).
func scenarioMain(w io.Writer, args []string) error {
	if len(args) == 0 {
		return badUsage("usage: cavenet scenario <list|run|check|sweep> [flags]")
	}
	switch args[0] {
	case "list":
		return scenarioList(w)
	case "run":
		return scenarioRun(w, args[1:])
	case "check":
		return scenarioCheck(w, args[1:])
	case "sweep":
		return scenarioSweep(w, args[1:])
	default:
		return badUsage("unknown scenario subcommand %q (want list, run, check or sweep)", args[0])
	}
}

// scenarioList prints the catalogue table (specs are stored normalized,
// so all defaults are visible).
func scenarioList(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tLANES\tVEHICLES\tCIRCUIT\tSIGNALS\tFLOWS\tDESCRIPTION")
	for _, s := range scenario.Specs() {
		lanes, circuit, signals := s.Lanes, s.CircuitMeters, len(s.Signals)
		if s.Urban() {
			// One-way streets are the grid's lanes; CIRCUIT reports the
			// total street length they add up to.
			streets := s.GridRows*(s.GridCols-1) + s.GridCols*(s.GridRows-1)
			lanes = streets
			circuit = float64(streets) * s.BlockMeters
			if s.GridSignalGreen > 0 {
				signals = streets
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0fm\t%d\t%d\t%s\n",
			s.Name, lanes, s.TotalVehicles(), circuit, signals, len(s.Flows), s.Description)
	}
	return tw.Flush()
}

func scenarioRun(w io.Writer, args []string) error {
	fs := newFlagSet("scenario run")
	protocol := fs.String("protocol", "", "override the spec's routing protocol (aodv, olsr, dymo, gpsr)")
	seed := fs.Int64("seed", 0, "override the spec's seed")
	var simTime float64
	fs.Float64Var(&simTime, "time", 0, "override the simulated seconds")
	fs.Float64Var(&simTime, "duration", 0, "alias for -time")
	nodes := fs.Int("nodes", 0, "rescale the fleet to this many vehicles at the spec's density (circuit and signals scale along) for quick scale experiments")
	quick := fs.Bool("quick", false, "run the shrunk (test-sized) spec variant, as check and sweep -quick do; with -protocol and the cell's -seed this replays one sweep -quick cell")
	checked := fs.Bool("check", true, "run under the invariant harness")
	format := fs.String("format", "text", "text or json")
	churn := fs.Float64("churn", 0, "inject node churn at this rate per node per minute (4 s crash outages); shorthand for -faults churn:RATE")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	faults := fs.String("faults", "", "fault plan, ';'-joined clauses: churn:RATE[,DOWNSEC[,graceful]] | blackout:START,DUR[,FRACTION] | partition:START,DUR | impair:A-B,START,DUR[,LOSS[,ATTENDB]]; replaces the scenario's declared faults")
	// Accept the name before or after the flags.
	var name string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if name == "" && fs.NArg() == 1 {
		name = fs.Arg(0)
	} else if name == "" || fs.NArg() > 0 {
		return badUsage("usage: cavenet scenario run <name> [flags]; see 'cavenet scenario list'")
	}
	// Fail unknown formats and out-of-range overrides before the
	// simulation runs, not after — a `> 0` guard alone would skip a
	// negative (or NaN) override and silently run the unmodified spec.
	outFormat, err := parseFormat(*format, "text", "json")
	if err != nil {
		return err
	}
	if !(simTime >= 0) || *nodes < 0 || !(*churn >= 0) {
		return badUsage("-time, -nodes and -churn must not be negative")
	}
	spec, ok := scenario.Get(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q; see 'cavenet scenario list'", name)
	}
	if *protocol != "" {
		p, err := scenario.ParseProtocol(*protocol)
		if err != nil {
			return err
		}
		spec.Protocol = p
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	// Same order as scenario.NewGrid: shrink, then rescale, then retime.
	// (-time 20 alone is not the shrunk spec: Shrunk also caps the CA
	// warm-up and pins the flow windows.)
	if *quick {
		spec = spec.Shrunk()
	}
	if *nodes > 0 {
		scaled, err := spec.WithVehicles(*nodes)
		if err != nil {
			return err
		}
		spec = scaled
	}
	if simTime > 0 {
		spec = spec.WithSimTime(sim.Seconds(simTime))
	}
	if *faults != "" {
		fspec, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		spec.Faults = fspec
	}
	if *churn > 0 {
		spec.Faults.ChurnRatePerMin = *churn
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cavenet: closing %s: %v\n", *cpuProfile, err)
			}
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so live bytes reflect retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cavenet: writing %s: %v\n", *memProfile, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cavenet: closing %s: %v\n", *memProfile, err)
			}
		}()
	}

	var res *scenario.Result
	var report fmt.Stringer = nil
	violations := 0
	if *checked {
		r, rep, err := scenario.RunChecked(spec)
		if err != nil {
			return err
		}
		res = r
		violations = rep.Total()
		report = rep
	} else {
		r, err := scenario.Run(spec)
		if err != nil {
			return err
		}
		res = r
	}

	if outFormat == "json" {
		out := struct {
			*scenario.Result
			Violations int `json:"violations"`
		}{res, violations}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "scenario: %s (%s)\n", res.Spec.Name, res.Spec.Description)
		fmt.Fprintf(w, "protocol: %s  seed: %d  time: %.0fs\n",
			res.Spec.Protocol, res.Spec.Seed, res.Spec.SimTime.Seconds())
		fmt.Fprintf(w, "total PDR: %.3f  delivered: %d  in flight at end: %d  control packets: %d\n",
			res.TotalPDR(), res.TotalDelivered(), res.InFlight, res.ControlPackets)
		if r := res.Resilience; r != nil {
			fmt.Fprintf(w, "faults: %d windows  downtime: %.1f node-s  PDR during/outside windows: %.3f/%.3f\n",
				r.Windows, r.DowntimeNodeSec, r.PDRDuring, r.PDROutside)
			if r.Recoveries > 0 {
				fmt.Fprintf(w, "recoveries: %d  re-converged (delivery resumed): %d  mean re-convergence: %.2fs\n",
					r.Recoveries, r.Reconverged, r.MeanReconvergeSec)
			}
		}
		if u := res.Uplink; u != nil {
			fmt.Fprintf(w, "uplink (V2I via RSU gateway): sent %d  delivered %d  PDR %.3f\n",
				u.Sent, u.Delivered, u.PDR)
		}
		if len(res.Unreachable) > 0 {
			var total uint64
			for _, u := range res.Unreachable {
				total += u
			}
			fmt.Fprintf(w, "unreachable drops (no route to destination): %d\n", total)
		}
		fmt.Fprintln(w, "sender  sent  delivered    PDR   meanDelay")
		for _, s := range res.Senders {
			fmt.Fprintf(w, "%4d   %5d   %6d    %.3f   %7.4fs\n",
				s, res.Sent[s], res.Delivered[s], res.PDR[s], res.MeanDelaySec[s])
		}
		if *checked {
			if violations == 0 {
				fmt.Fprintln(w, "invariants: all hold")
			} else {
				fmt.Fprintf(w, "invariants: %d VIOLATIONS\n%s", violations, report)
			}
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

func scenarioCheck(w io.Writer, args []string) error {
	fs := newFlagSet("scenario check")
	protocols := fs.String("protocols", "all", "comma list of aodv,olsr,dymo,gpsr, or all")
	seeds := fs.Int("seeds", 3, "seeds per (scenario, protocol) cell")
	quick := fs.Bool("quick", true, "run the shrunk (test-sized) spec variants")
	// Accept scenario names before or after the flags.
	var names []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		names, args = append(names, args[0]), args[1:]
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	names = append(names, fs.Args()...)
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		// Heavy scale workloads (metro) are checked only when named
		// explicitly; "all" means the exhaustive-suite catalogue.
		names = names[:0]
		for _, n := range scenario.Names() {
			if s, ok := scenario.Get(n); ok && !s.Heavy {
				names = append(names, n)
			}
		}
	}
	protoList, err := parseProtocolList(*protocols)
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range names {
		spec, ok := scenario.Get(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q", name)
		}
		for _, p := range protoList {
			for s := int64(1); s <= int64(*seeds); s++ {
				run := spec
				if *quick {
					run = run.Shrunk()
				}
				run.Protocol = p
				run.Seed = s
				_, rep, err := scenario.RunChecked(run)
				if err != nil {
					return err
				}
				if rep.Ok() {
					fmt.Fprintf(w, "PASS %-14s %-5s seed=%d\n", name, p, s)
				} else {
					failed++
					fmt.Fprintf(w, "FAIL %-14s %-5s seed=%d\n%s", name, p, s, rep)
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d cells violated invariants", failed)
	}
	fmt.Fprintln(w, "all scenarios hold all invariants")
	return nil
}

func scenarioSweep(w io.Writer, args []string) error {
	fs := newFlagSet("scenario sweep")
	scenarios := fs.String("scenarios", "all", "comma list of scenario names, or all")
	protocols := fs.String("protocols", "all", "comma list of aodv,olsr,dymo,gpsr, or all")
	trials := fs.Int("trials", 5, "seeded replications per cell")
	seed := fs.Int64("seed", 1, "root seed; trial t of scenario s forks root->s->t")
	workers := fs.Int("workers", 0, "worker goroutines (0 = one per core); any value gives bit-identical output")
	quick := fs.Bool("quick", false, "sweep the shrunk (test-sized) spec variants")
	checked := fs.Bool("check", true, "count invariant violations per cell")
	simTime := fs.Float64("time", 0, "override every spec's simulated seconds (flow windows re-derive)")
	nodes := fs.Int("nodes", 0, "rescale every spec to this many vehicles at its declared density")
	format := fs.String("format", "csv", "csv or json")
	output := fs.String("o", "", "write to this file instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	outFormat, err := parseFormat(*format, "csv", "json")
	if err != nil {
		return err
	}
	var names []string
	if !strings.EqualFold(*scenarios, "all") {
		for _, n := range strings.Split(*scenarios, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	protoList, err := parseProtocolList(*protocols)
	if err != nil {
		return err
	}
	grid, err := scenario.NewGrid(scenario.SweepConfig{
		Scenarios:       names,
		Protocols:       protoList,
		Trials:          *trials,
		Seed:            *seed,
		Shrunk:          *quick,
		Checked:         *checked,
		OverrideTimeSec: *simTime,
		OverrideNodes:   *nodes,
	})
	if err != nil {
		return badUsage("%v", err)
	}
	rows, err := grid.Run(*workers)
	if err != nil {
		return err
	}
	if *output != "" {
		f, err := openOutput(*output)
		if err != nil {
			return err
		}
		if err := writeScenarioSweep(f, outFormat, rows); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return writeScenarioSweep(w, outFormat, rows)
}

// writeScenarioSweep renders through the same functions the serve
// artifact endpoint uses, so CLI and service output are byte-identical.
func writeScenarioSweep(w io.Writer, format string, rows []scenario.SweepRow) error {
	if format == "json" {
		return scenario.WriteSweepJSON(w, rows)
	}
	return scenario.WriteSweepCSV(w, rows)
}
