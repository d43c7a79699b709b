// Command bench is the repository's benchmark: five named workloads over
// the simulator and the scheduler daemon, each generated from a seed,
// checked for correctness in the same run, and reported as end-to-end
// metrics (tracing off) or per-layer metrics (tracing on).
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds <s>] [-trace 1] [-smoke] [-out file]
//	go run ./bench -compare a.json b.json
//
// It measures every layer from outside, through public functions and
// public injection points (sim.Config.Scheduler, server.Config.Policy,
// the net.Listener handed to Server.Serve); nothing outside bench/ knows
// it exists. See bench/README.md for the workloads, the metric tables and
// the predictions later changes are held to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// options is one invocation's settings, shared by every workload.
type options struct {
	seed    int64
	seconds float64 // length of the timed window
	trace   bool
	smoke   bool
}

// workloadDef is one named set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	run  func(o options) (*result, error)
}

// workloads lists the benchmark's traffic mixes. The names are fixed:
// later issues state their claims as "metric X on workload Y".
var workloads = []workloadDef{
	{"fig6-sweep", "paper-reproduction traffic: 240 small Figure 6 cells per pass, where the policy sort and the decide loop do the work", runFig6Sweep},
	{"pop100k", "one 100k-application run on the Saturating fast path: setup, collect, the event kernel and allocation dominate, the policy does not", runPop100k},
	{"daemon-cycle", "steady request path of the daemon under congestion: a full MaxSysEff round over ~64 views per message, one grant pushed per cycle", runDaemonCycle},
	{"daemon-fanout", "FairShare re-shares every session on every message: ~125 pushes per cycle, so outbox, encode and socket writes dominate", runDaemonFanout},
	{"daemon-churn", "whole session lifecycles (dial, request, grant, complete, close): registry, per-connection goroutines, hello and leave rounds", runDaemonChurn},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// document is the full report of one invocation.
type document struct {
	Env     envInfo   `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Smoke   bool      `json:"smoke,omitempty"`
	Results []*result `json:"results"`
}

// envInfo records where the numbers were taken.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown" where
// the file or the field does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// summary is the one-line result the benchmark contract asks for as the
// last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit, so the smoke
// test drives the same path the command line does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "length of the timed window of each workload")
		trace   = fs.String("trace", "0", "1 attaches the layer wrappers and the span recorder and reports the per-layer metrics")
		smoke   = fs.Bool("smoke", false, "tiny sizes, for the tier-1 smoke test")
		out     = fs.String("out", "", "also write the full JSON document to this file")
		compare = fs.Bool("compare", false, "compare two documents written with -out against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two document files")
			return 2
		}
		return compareDocuments(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -trace %q: want 0 or 1\n", *trace)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke}
	if o.smoke {
		o.seconds = 0.2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{*w}
	}

	doc := document{Env: readEnv(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}
	sum := summary{Correct: true, Metrics: map[string]summaryMetric{}}
	for _, w := range selected {
		res, err := w.run(o)
		if err != nil {
			// A workload that cannot even be set up prints no result.
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.finish(o)
		doc.Results = append(doc.Results, res)
		sum.Attempted += res.Ops
		sum.Failed += res.FailedOps
		for _, d := range reported(o.trace) {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			sum.Metrics[key] = summaryMetric{Value: res.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	sum.Correct = sum.Failed == 0

	pretty, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(pretty, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(&sum)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", pretty, line)
	if sum.Failed > 0 {
		return 1
	}
	return 0
}
