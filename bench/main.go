// Command bench is the repository's benchmark: six named workloads, five
// bounded end-to-end metrics plus an error rate, and per-layer attribution
// taken entirely from outside the program under test. See README.md in
// this directory and BENCHMARK.json at the root of the repository.
//
//	go run ./bench                          run the whole suite, print and record it
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                        one run of one workload (the contract's command)
//	go run ./bench -compare a.json b.json   diff two records
//	go run ./bench -sets 2                  run the suite twice; fail unless the sets agree
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if os.Getenv(noopEnv) != "" {
		return // child-start probe
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: 0 on success, 1 when a
// verification or comparison fails, 2 on a usage or environment error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload and print its result line (default: run the suite)")
		seed         = fs.Int64("seed", 1, "seed every workload's inputs derive from")
		seconds      = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		smoke        = fs.Bool("smoke", false, "tiny sizes: checks that everything runs and reports, measures nothing useful")
		detail       = fs.String("detail", "", "with -workload: also write the detailed JSON report here")
		out          = fs.String("o", "", "suite: write the record here (default bench/out/record.json)")
		sets         = fs.Int("sets", 1, "suite: run it this many times and fail unless the sets agree within the bounds")
		compare      = fs.Bool("compare", false, "compare two records: -compare a.json b.json")
		spec         = fs.Bool("spec", false, "print BENCHMARK.json as the declarations in this package define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch {
	case *spec:
		data, err := benchmarkSpec()
		if err != nil {
			return fail(err)
		}
		_, _ = stdout.Write(data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("bench: -compare takes two record files"))
		}
		regressed, err := compareRecords(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *workloadName != "":
		d, err := runChild(childConfig{
			Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Smoke: *smoke, Detail: *detail, OutDir: outDir,
		})
		if err != nil {
			return fail(err)
		}
		if err := printChild(stdout, d); err != nil {
			return fail(err)
		}
		if !d.Correct {
			return 1
		}
		return 0
	}
	ok, err := runSuite(suiteConfig{
		Seed: *seed, Seconds: *seconds, Sets: *sets, Smoke: *smoke, Out: *out,
	}, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}
