package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// report is what report mode writes: every (workload, metric) row with the
// value of each repeat, plus the environment the numbers came from.
type report struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Repeats int         `json:"repeats"`
	Rows    []reportRow `json:"rows"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type reportRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Kind     string    `json:"kind"` // end_to_end or per_layer
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Samples is the timing sample count behind each value (the smallest
	// over the repeats), 0 for counts.
	Samples int `json:"samples,omitempty"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runReport runs every selected workload o.repeats times through both
// passes, each (workload, repeat, pass) in its own child process so set-up
// time and peak memory belong to one workload, prints every metric and
// writes the report. It reports whether every pass was correct.
func runReport(bf *benchmarkFile, o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	rep := report{Env: currentEnvironment(), Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats}
	rows := make(map[string]*reportRow)
	allCorrect := true
	for _, wl := range bf.Workloads {
		if o.workload != "" && o.workload != wl.Name {
			continue
		}
		for r := 0; r < o.repeats; r++ {
			for _, pass := range []string{"0", "1"} {
				tag := fmt.Sprintf("%s-r%d-t%s", wl.Name, r, pass)
				resultPath := filepath.Join(dir, tag+".json")
				args := []string{
					"-benchmark", o.benchmark, "-workload", wl.Name, "-seed", strconv.FormatInt(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", pass, "-result", resultPath,
				}
				if o.runs > 0 {
					args = append(args, "-runs", strconv.Itoa(o.runs))
				}
				if pass == "1" && o.traceOut != "" {
					args = append(args, "-trace-out", suffixed(o.traceOut, tag))
				}
				if o.cpuProfile != "" {
					args = append(args, "-cpuprofile", suffixed(o.cpuProfile, tag))
				}
				if o.memProfile != "" {
					args = append(args, "-memprofile", suffixed(o.memProfile, tag))
				}
				res, err := runChild(self, args, resultPath)
				if err != nil {
					return false, fmt.Errorf("%s: %w", tag, err)
				}
				printPass(os.Stdout, res)
				if len(res.Violations) > 0 {
					allCorrect = false
				}
				kind := "end_to_end"
				if pass == "1" {
					kind = "per_layer"
				}
				for name, v := range res.Metrics {
					key := wl.Name + "\x00" + name
					row := rows[key]
					if row == nil {
						row = &reportRow{Workload: wl.Name, Metric: name, Kind: kind, Unit: v.Unit, Samples: v.Samples}
						rows[key] = row
					}
					row.Values = append(row.Values, v.Value)
					if v.Samples < row.Samples {
						row.Samples = v.Samples
					}
				}
				share := 0.0
				if res.Attempted > 0 {
					share = float64(res.Failed) / float64(res.Attempted)
				}
				key := wl.Name + "\x00failed_ops_share"
				if rows[key] == nil {
					rows[key] = &reportRow{Workload: wl.Name, Metric: "failed_ops_share", Kind: "end_to_end", Unit: "ratio"}
				}
				rows[key].Values = append(rows[key].Values, share)
			}
		}
	}
	for _, row := range rows {
		row.Median = median(row.Values)
		rep.Rows = append(rep.Rows, *row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Metric < b.Metric
	})
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("report: %s (%d rows; nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d)\n",
		o.out, len(rep.Rows), rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, rep.Seed)
	return allCorrect, nil
}

// suffixed inserts tag before path's extension.
func suffixed(path, tag string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + tag + ext
}

// runChild runs one pass in a child process and reads back its result
// file. The child's own output is swallowed unless it fails.
func runChild(self string, args []string, resultPath string) (*passResult, error) {
	cmd := exec.Command(self, args...)
	out, err := cmd.CombinedOutput()
	// A child that ran but found violations exits 1 after writing its
	// result; anything else is a failure to run.
	if err != nil {
		if _, statErr := os.Stat(resultPath); statErr != nil {
			return nil, fmt.Errorf("%w\n%s", err, lastLines(string(out), 20))
		}
	}
	data, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, err
	}
	var res passResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func lastLines(s string, n int) string {
	sc := bufio.NewScanner(strings.NewReader(s))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (nearest rank) of xs, or 0 when empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// spread is the run-to-run spread of xs as a share of their median: the
// distance between the first and third quartile (Python's
// statistics.quantiles(xs, n=4), the exclusive method) with four or more
// values, the full range with fewer.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports applies the declared bounds to every (end-to-end metric,
// workload) row present in both reports, base A against change B, and
// prints one verdict per row with the ratio and its base:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  either side's spread is wider than the bound, and B's runs
//	            do not all read better than all of A's
//	improved    B's median is better by more than either side's spread
//	unchanged   otherwise
//
// failed_ops_share has an absolute bound of 0. It reports whether any row
// regressed or is unresolved.
func compareReports(w io.Writer, bf *benchmarkFile, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	index := func(r *report) map[string]reportRow {
		m := make(map[string]reportRow, len(r.Rows))
		for _, row := range r.Rows {
			m[row.Workload+"\x00"+row.Metric] = row
		}
		return m
	}
	rowsA, rowsB := index(a), index(b)
	fmt.Fprintf(w, "base   %s (commit %s, %d repeats)\nchange %s (commit %s, %d repeats)\n",
		pathA, a.Env.Commit, a.Repeats, pathB, b.Env.Commit, b.Repeats)
	bad := false
	counts := map[string]int{}
	for _, wl := range bf.Workloads {
		for _, d := range append(append([]declared(nil), bf.EndToEnd...), declared{Name: "failed_ops_share", Unit: "ratio", Better: "lower"}) {
			ra, okA := rowsA[wl.Name+"\x00"+d.Name]
			rb, okB := rowsB[wl.Name+"\x00"+d.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(d, ra.Values, rb.Values)
			counts[verdict]++
			if verdict == "regressed" || verdict == "unresolved" {
				bad = true
			}
			ratio := 0.0
			if ra.Median != 0 {
				ratio = rb.Median / ra.Median
			}
			fmt.Fprintf(w, "%-16s %-22s %-10s %12.4f -> %12.4f %-5s x%.4f of base (bound %.0f%%, spread %.1f%% / %.1f%%)\n",
				wl.Name, d.Name, verdict, ra.Median, rb.Median, d.Unit, ratio, d.Bound*100, spread(ra.Values)*100, spread(rb.Values)*100)
		}
	}
	fmt.Fprintf(w, "improved %d, unchanged %d, regressed %d, unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"])
	return bad, nil
}

// judge classifies one row; see compareReports.
func judge(d declared, a, b []float64) string {
	ma, mb := median(a), median(b)
	if d.Name == "failed_ops_share" {
		if mb > ma {
			return "regressed"
		}
		return "unchanged"
	}
	// worse > 0 means B is worse, as a share of A's median.
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
		if d.Better == "higher" {
			worse = -worse
		}
	}
	if worse > d.Bound {
		return "regressed"
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if !allBetter(d, a, b) {
			return "unresolved"
		}
	}
	if better := -worse; better > spread(a) && better > spread(b) {
		return "improved"
	}
	return "unchanged"
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(d declared, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
