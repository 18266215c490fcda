package cavenet

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md §6 calls out. Each
// bench runs the experiment at the paper's full parameters and reports the
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. EXPERIMENTS.md records paper-vs-measured.

import (
	"testing"

	"cavenet/internal/sim"
)

// --- Fig. 4: fundamental diagram -----------------------------------------

func BenchmarkFig4FundamentalDiagram(b *testing.B) {
	var peak0, peak5 float64
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{0, 0.5} {
			pts, err := FundamentalDiagram(FundamentalConfig{
				LaneLength: 400, SlowdownP: p, Trials: 20, Iterations: 500, Warmup: 100, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			peak := 0.0
			for _, pt := range pts {
				if pt.Flow > peak {
					peak = pt.Flow
				}
			}
			if p == 0 {
				peak0 = peak
			} else {
				peak5 = peak
			}
		}
	}
	b.ReportMetric(peak0, "peakJ(p=0)")
	b.ReportMetric(peak5, "peakJ(p=0.5)")
}

// --- Fig. 5: space-time plots ---------------------------------------------

func BenchmarkFig5SpaceTime(b *testing.B) {
	panels := []SpaceTimeConfig{
		{LaneLength: 800, Density: 0.0625, SlowdownP: 0.3, Steps: 100, Seed: 1},
		{LaneLength: 400, Density: 0.5, SlowdownP: 0.3, Steps: 100, Seed: 2},
		{LaneLength: 400, Density: 0.1, SlowdownP: 0, Steps: 100, Seed: 3},
		{LaneLength: 400, Density: 0.5, SlowdownP: 0, Steps: 100, Seed: 4},
	}
	rowsTotal := 0
	for i := 0; i < b.N; i++ {
		rowsTotal = 0
		for _, cfg := range panels {
			rows, err := SpaceTime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rowsTotal += len(rows)
		}
	}
	b.ReportMetric(float64(rowsTotal), "rows")
}

// --- Fig. 6: velocity realizations ----------------------------------------

func BenchmarkFig6VelocityRealizations(b *testing.B) {
	var freeFlow, congested float64
	for i := 0; i < b.N; i++ {
		low, err := VelocitySeries(VelocityConfig{Density: 0.1, SlowdownP: 0.3, Steps: 5000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		high, err := VelocitySeries(VelocityConfig{Density: 0.5, SlowdownP: 0.3, Steps: 5000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		freeFlow = mean(low[2500:])
		congested = mean(high[2500:])
	}
	b.ReportMetric(freeFlow, "v(rho=0.1)")
	b.ReportMetric(congested, "v(rho=0.5)")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- Fig. 7: periodograms ---------------------------------------------------

func BenchmarkFig7Periodogram(b *testing.B) {
	var detSlope, stoSlope, stoHurst float64
	for i := 0; i < b.N; i++ {
		det, err := Periodogram(VelocityConfig{Density: 0.1, SlowdownP: 0, Steps: 8192, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// The paper labels panel (b) ρ=0.05, p=0.5; the 1/f divergence is
		// strongest near the critical density, so we report both.
		sto, err := Periodogram(VelocityConfig{Density: 0.1, SlowdownP: 0.5, Steps: 8192, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		detSlope = det.GPHSlope
		stoSlope = sto.GPHSlope
		stoHurst = sto.Hurst
	}
	b.ReportMetric(detSlope, "slope(p=0)")
	b.ReportMetric(stoSlope, "slope(p=0.5)")
	b.ReportMetric(stoHurst, "hurst(p=0.5)")
}

// --- Table I / Figs. 8-11: protocol evaluation ------------------------------

func tableIScenario(p Protocol) Scenario {
	return Scenario{Protocol: p, Seed: 1}
}

func goodputBench(b *testing.B, p Protocol) {
	b.Helper()
	var peak, total float64
	for i := 0; i < b.N; i++ {
		res, err := Run(tableIScenario(p))
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, s := range res.Senders {
			for _, bps := range res.Goodput[s] {
				if bps > peak {
					peak = bps
				}
			}
		}
		total = res.TotalPDR()
	}
	b.ReportMetric(peak, "peak-bps")
	b.ReportMetric(total, "total-pdr")
}

func BenchmarkFig8AODVGoodput(b *testing.B)  { goodputBench(b, AODV) }
func BenchmarkFig9OLSRGoodput(b *testing.B)  { goodputBench(b, OLSR) }
func BenchmarkFig10DYMOGoodput(b *testing.B) { goodputBench(b, DYMO) }

func BenchmarkFig11PDR(b *testing.B) {
	var pdr map[Protocol]float64
	for i := 0; i < b.N; i++ {
		results, err := Compare(tableIScenario(AODV), []Protocol{AODV, OLSR, DYMO})
		if err != nil {
			b.Fatal(err)
		}
		pdr = map[Protocol]float64{}
		for p, r := range results {
			pdr[p] = r.TotalPDR()
		}
	}
	b.ReportMetric(pdr[AODV], "pdr-aodv")
	b.ReportMetric(pdr[OLSR], "pdr-olsr")
	b.ReportMetric(pdr[DYMO], "pdr-dymo")
}

func BenchmarkTable1Scenario(b *testing.B) {
	// The scenario assembly + full run, with event throughput reported.
	for i := 0; i < b.N; i++ {
		res, err := Run(tableIScenario(AODV))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MACStats.DataTx), "mac-frames")
		b.ReportMetric(float64(res.ControlPackets), "ctrl-packets")
	}
}

// --- §IV-B: transient time ---------------------------------------------------

func BenchmarkTransientTime(b *testing.B) {
	var tau float64
	for i := 0; i < b.N; i++ {
		res, err := Transient(VelocityConfig{Density: 0.1, SlowdownP: 0, Steps: 2000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		tau = float64(res.Tau)
	}
	b.ReportMetric(tau, "tau-steps")
}

// --- Ablations (DESIGN.md §6) -------------------------------------------------

// BenchmarkAblationRingVsLine quantifies the paper's §III-B improvement:
// the circuit boundary vs. the first version's straight line with its
// wrap-around communication gap.
func BenchmarkAblationRingVsLine(b *testing.B) {
	var ring, line float64
	for i := 0; i < b.N; i++ {
		cfg := tableIScenario(DYMO)
		r1, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		trace, err := StraightLineTrace(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := RunOnTrace(cfg, trace)
		if err != nil {
			b.Fatal(err)
		}
		ring = r1.TotalPDR()
		line = r2.TotalPDR()
	}
	b.ReportMetric(ring, "pdr-circuit")
	b.ReportMetric(line, "pdr-line")
}

func BenchmarkAblationCaptureOff(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		cfg := tableIScenario(DYMO)
		r1, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.NoCapture = true
		r2, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		on = r1.TotalPDR()
		off = r2.TotalPDR()
	}
	b.ReportMetric(on, "pdr-capture")
	b.ReportMetric(off, "pdr-nocapture")
}

func BenchmarkAblationExpandingRing(b *testing.B) {
	var ring, flood float64
	for i := 0; i < b.N; i++ {
		cfg := tableIScenario(AODV)
		r1, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.AODVNoExpandingRing = true
		r2, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ring = float64(r1.ControlPackets)
		flood = float64(r2.ControlPackets)
	}
	b.ReportMetric(ring, "ctrl-ring")
	b.ReportMetric(flood, "ctrl-flood")
}

func BenchmarkAblationDYMOPathAccumulation(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		cfg := tableIScenario(DYMO)
		r1, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.DYMONoPathAccumulation = true
		r2, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		on = r1.TotalPDR()
		off = r2.TotalPDR()
	}
	b.ReportMetric(on, "pdr-pathaccum")
	b.ReportMetric(off, "pdr-nopathaccum")
}

func BenchmarkAblationOLSRETX(b *testing.B) {
	var hop, etx float64
	for i := 0; i < b.N; i++ {
		cfg := tableIScenario(OLSR)
		r1, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.OLSRETX = true
		r2, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hop = r1.TotalPDR()
		etx = r2.TotalPDR()
	}
	b.ReportMetric(hop, "pdr-hopcount")
	b.ReportMetric(etx, "pdr-etx")
}

// --- Micro-benchmarks of the substrates ---------------------------------------

func BenchmarkCircuitTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CircuitTrace(tableIScenario(AODV)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNS2Export(b *testing.B) {
	tr, err := CircuitTrace(tableIScenario(AODV))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ExportNS2(discard{}, tr); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkShortScenarioThroughput(b *testing.B) {
	// A 10 s scenario as a per-iteration unit, for -benchmem allocation
	// tracking of the whole CPS stack.
	cfg := Scenario{
		Protocol: DYMO,
		SimTime:  10 * sim.Second,
		Flows:    flowsTo0(2*sim.Second, 9*sim.Second, 1, 2, 3, 4, 5, 6, 7, 8),
		Seed:     1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions (paper §V future work + Fig. 1 discussion) --------------------

// BenchmarkFig1bInterference quantifies the opposite-lane interference of
// Fig. 1-b: the same two-lane mobility with the second lane silent vs.
// transmitting.
func BenchmarkFig1bInterference(b *testing.B) {
	var res InterferenceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Interference(InterferenceConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.QuietPDR, "pdr-quiet")
	b.ReportMetric(res.InterferedPDR, "pdr-interfered")
	b.ReportMetric(float64(res.QuietRetries), "retries-quiet")
	b.ReportMetric(float64(res.InterferedRetries), "retries-interfered")
}

// BenchmarkAblationRTSCTS measures the RTS/CTS trade-off that Table I's
// "RTS/CTS: None" declines: handshake overhead vs. hidden-terminal
// protection in the full scenario.
func BenchmarkAblationRTSCTS(b *testing.B) {
	var off, on float64
	var retriesOff, retriesOn uint64
	for i := 0; i < b.N; i++ {
		cfg := tableIScenario(DYMO)
		r1, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.RTSThreshold = 256
		r2, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		off, on = r1.TotalPDR(), r2.TotalPDR()
		retriesOff, retriesOn = r1.MACStats.Retries, r2.MACStats.Retries
	}
	b.ReportMetric(off, "pdr-nortscts")
	b.ReportMetric(on, "pdr-rtscts")
	b.ReportMetric(float64(retriesOff), "retries-nortscts")
	b.ReportMetric(float64(retriesOn), "retries-rtscts")
}

// BenchmarkExtTopologyChange reports the §V "topology change" metric on
// the Table I mobility: link-change rate and mean link lifetime.
func BenchmarkExtTopologyChange(b *testing.B) {
	var st TopologyStats
	for i := 0; i < b.N; i++ {
		tr, err := CircuitTrace(tableIScenario(AODV))
		if err != nil {
			b.Fatal(err)
		}
		st = AnalyzeTopology(tr, 250)
	}
	b.ReportMetric(st.ChangeRate, "linkchanges-per-s")
	b.ReportMetric(st.MeanLinkUpSeconds, "mean-link-life-s")
	b.ReportMetric(st.MeanDegree, "mean-degree")
}

// BenchmarkExtRWStationary contrasts the classical RW velocity decay with
// the perfect-simulation initialization of the paper's ref [2].
func BenchmarkExtRWStationary(b *testing.B) {
	var decayTail, stationaryTail float64
	for i := 0; i < b.N; i++ {
		cfg := RWDecayConfig{Nodes: 200, VMin: 0.1, VMax: 20, Duration: 2000, Seed: 1}
		_, dec := RandomWaypointDecay(cfg)
		_, sta := RandomWaypointStationary(cfg)
		tenth := len(dec) / 10
		decayTail = mean(dec[len(dec)-tenth:]) / mean(dec[:tenth])
		stationaryTail = mean(sta[len(sta)-tenth:]) / mean(sta[:tenth])
	}
	b.ReportMetric(decayTail, "tail-head-ratio-classic")
	b.ReportMetric(stationaryTail, "tail-head-ratio-stationary")
}

// BenchmarkExtShadowingConnectivity sweeps link probability vs distance
// under log-normal shadowing (future-work ref [18]) and reports the sigmoid
// landmarks against the two-ray disk.
func BenchmarkExtShadowingConnectivity(b *testing.B) {
	var at250 float64
	for i := 0; i < b.N; i++ {
		pts := ShadowingConnectivity(ShadowingConfig{Seed: 1})
		for _, p := range pts {
			if p.DistanceM == 250 {
				at250 = p.LinkProb
			}
		}
	}
	b.ReportMetric(at250, "P(link)@250m")
}
