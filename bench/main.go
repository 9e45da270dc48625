// Command bench is the repository's benchmark: whole decide-and-move
// cycles driven through the public facade on four workloads, a traced pass
// that attributes each cycle to the layers, and direct-call layer probes.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./bench                                  # all workloads, both passes, report
//	go run ./bench -workload warehouse-topk -trace 0  # one pass, in-process
//	go run ./bench -compare A.json B.json           # apply the bounds to two reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// benchmarkFile is BENCHMARK.json: the declared metrics, bounds and
// workloads. The bench reads it so the emitted metric set and the compare
// bounds have one source.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

type options struct {
	benchmark  string
	workload   string
	seed       int64
	seconds    float64
	runs       int
	trace      string
	repeats    int
	out        string
	result     string
	traceOut   string
	cpuProfile string
	memProfile string
	compare    bool
}

func main() {
	var o options
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "path of the benchmark declaration")
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measurement window in seconds (default: run_seconds of the declaration)")
	flag.IntVar(&o.runs, "runs", 0, "measure exactly this many Run calls instead of a timed window")
	flag.StringVar(&o.trace, "trace", "", "run one pass in-process: 0 = end-to-end metrics, 1 = per-layer metrics")
	flag.IntVar(&o.repeats, "repeats", 3, "repeats per workload in report mode")
	flag.StringVar(&o.out, "out", "bench_report.json", "report path in report mode")
	flag.StringVar(&o.result, "result", "", "also write the pass's full result (sample counts, end-state digest) here")
	flag.StringVar(&o.traceOut, "trace-out", "", "write every span of the traced pass to this file")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the pass")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the pass")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: bench -compare A.json B.json")
	flag.Parse()

	bf, err := loadBenchmarkFile(o.benchmark)
	if err != nil {
		fatal(err)
	}
	if o.seconds == 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareReports(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case o.trace != "":
		if o.trace != "0" && o.trace != "1" {
			fatal(fmt.Errorf("-trace takes 0 or 1"))
		}
		ok, err := runOnePass(bf, o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		ok, err := runReport(bf, o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOnePass runs one pass of one workload in this process, prints every
// metric by name with its unit, and ends with the result line. It reports
// whether the outputs were correct.
func runOnePass(bf *benchmarkFile, o options) (bool, error) {
	s, ok := findSpec(o.workload)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	dir, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return false, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return false, err
		}
		defer pprof.StopCPUProfile()
	}
	in := s.generate(o.seed)
	cfg := passConfig{seconds: o.seconds, fixedRuns: o.runs, dir: dir, traceOut: o.traceOut}
	var res *passResult
	want := bf.EndToEnd
	if o.trace == "1" {
		want = bf.PerLayer
		cfg.probes = 30 * time.Millisecond
		res, err = tracedPass(s, in, cfg)
	} else {
		cfg.setups = 3
		res, err = untracedPass(s, in, cfg)
	}
	if err != nil {
		return false, err
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return false, err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
	}
	res.Metrics = declaredOnly(res.Metrics, want)
	if o.result != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.result, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	printPass(os.Stdout, res)
	return len(res.Violations) == 0, printResultLine(os.Stdout, res)
}

// declaredOnly keeps exactly the declared metrics: undeclared ones are
// dropped, and a declared one the workload has no value for (a span that
// never fires there, a checkpoint it never takes) reads 0 in its unit.
func declaredOnly(got map[string]metric, want []declared) map[string]metric {
	out := make(map[string]metric, len(want))
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			v = metric{Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func printPass(w *os.File, res *passResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d pass %s: %d runs, %d cycles, %d records, layout %s\n",
		res.Workload, res.Seed, pass, res.Runs, res.Cycles, res.Records, res.Digest)
	for _, name := range sortedNames(res.Metrics) {
		v := res.Metrics[name]
		if v.Samples > 0 {
			fmt.Fprintf(w, "  %-44s %14.4f %-6s (n=%d)\n", name, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", name, v.Value, v.Unit)
		}
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-44s %14.4f ratio (%d of %d)\n", "failed_ops_share", share, res.Failed, res.Attempted)
	for _, v := range res.Violations {
		fmt.Fprintln(w, "  VIOLATION:", v)
	}
}

// printResultLine prints the one-object result line the benchmark contract
// asks for, last.
func printResultLine(w *os.File, res *passResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Violations) == 0, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, v := range res.Metrics {
		line.Metrics[name] = value{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
