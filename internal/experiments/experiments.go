// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI–§VIII) on the simulated substrate:
//
//	Fig. 4    — feature↔throughput Pearson correlations on the EOS trace
//	Table I   — the 23 candidate model architectures
//	Table II  — per-model accuracy and train/predict time on `people`
//	Table III — model 1 accuracy per storage point
//	Fig. 5a   — Geomancy dynamic vs LRU/MRU/LFU/random dynamic
//	Fig. 5b   — Geomancy dynamic vs random static / Geomancy static
//	Table IV  — per-mount throughput and utilization vs Geomancy
//	Fig. 6    — adaptation when a second workload appears
//	§VIII     — training/prediction overhead at Z = 6 and Z = 13
//
// Every experiment takes an Options value whose zero state means "paper
// scale"; Quick() shrinks the workloads so the full suite runs in seconds
// for tests and benchmarks. Absolute numbers differ from the paper (the
// substrate is a simulator, not Bluesky); EXPERIMENTS.md records the
// shape comparisons.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"geomancy/internal/telemetry"
)

// Options sizes an experiment run.
type Options struct {
	// Seed drives every stochastic component.
	Seed int64
	// Runs is the number of workload runs per policy (Fig. 5, Table IV,
	// Fig. 6).
	Runs int
	// BootstrapRuns precede measurement to fill the ReplayDB, mirroring
	// the paper's 10,000-access warm-up.
	BootstrapRuns int
	// Epochs is the neural-network training epoch count: of every full
	// fit under FixedEpochs, otherwise of a cold one (core.Config.Epochs).
	Epochs int
	// FixedEpochs trains Epochs on every full fit, the paper's
	// per-decision schedule (§V-G), instead of a warm fit's share of them.
	// Options that leave Epochs zero take Paper's schedule, this included.
	FixedEpochs bool
	// WindowX is the per-device ReplayDB window for training.
	WindowX int
	// CooldownRuns is the Geomancy decision cadence.
	CooldownRuns int
	// TraceRecords sizes the synthetic EOS trace (Fig. 4, overhead).
	TraceRecords int
	// SeriesWindow is the access-count bucket for throughput series.
	SeriesWindow int
}

// Paper returns the paper-scale options.
func Paper(seed int64) Options {
	return Options{
		Seed:          seed,
		Runs:          50,
		BootstrapRuns: 25,
		Epochs:        200,
		FixedEpochs:   true,
		WindowX:       2000,
		CooldownRuns:  5,
		TraceRecords:  50000,
		SeriesWindow:  500,
	}
}

// Quick returns reduced options for tests and benchmarks.
func Quick(seed int64) Options {
	return Options{
		Seed:          seed,
		Runs:          8,
		BootstrapRuns: 3,
		Epochs:        6,
		WindowX:       400,
		CooldownRuns:  2,
		TraceRecords:  4000,
		SeriesWindow:  200,
	}
}

func (o Options) withDefaults() Options {
	def := Paper(o.Seed)
	if o.Runs == 0 {
		o.Runs = def.Runs
	}
	if o.BootstrapRuns == 0 {
		o.BootstrapRuns = def.BootstrapRuns
	}
	if o.Epochs == 0 { // the schedule defaults whole: the paper's epochs, every fit
		o.Epochs, o.FixedEpochs = def.Epochs, def.FixedEpochs
	}
	if o.WindowX == 0 {
		o.WindowX = def.WindowX
	}
	if o.CooldownRuns == 0 {
		o.CooldownRuns = def.CooldownRuns
	}
	if o.TraceRecords == 0 {
		o.TraceRecords = def.TraceRecords
	}
	if o.SeriesWindow == 0 {
		o.SeriesWindow = def.SeriesWindow
	}
	return o
}

// Point is one bucket of a throughput-over-accesses series.
type Point struct {
	// AccessIndex is the global access count at the end of the bucket.
	AccessIndex int64
	// Throughput is the mean observed throughput in the bucket (bytes/s).
	Throughput float64
}

// Series is a named throughput trajectory plus the movement bars beneath
// Fig. 5's graphs.
type Series struct {
	Name      string
	Points    []Point
	Movements []MovementBar
	// Mean is the overall mean per-access throughput (bytes/s).
	Mean float64
	// Std is the standard deviation of per-access throughput.
	Std float64
	// Accesses is the total access count.
	Accesses int64
	// LatencyP50/P95/P99 are per-access latency percentiles in seconds,
	// estimated from a fixed-bucket histogram over the whole series.
	LatencyP50, LatencyP95, LatencyP99 float64
}

// MovementBar is one Fig. 5 movement annotation.
type MovementBar struct {
	AccessIndex int64
	Moved       int
}

// seriesBuilder accumulates per-access throughput into fixed-size buckets
// and per-access latency into a histogram for the percentile summary.
type seriesBuilder struct {
	window  int64
	count   int64
	sum     float64
	all     []float64
	points  []Point
	latency *telemetry.Histogram
}

func newSeriesBuilder(window int) *seriesBuilder {
	if window <= 0 {
		window = 500
	}
	return &seriesBuilder{
		window:  int64(window),
		latency: telemetry.NewHistogram(telemetry.DefLatencyBuckets),
	}
}

func (b *seriesBuilder) add(tp, lat float64) {
	b.count++
	b.sum += tp
	b.all = append(b.all, tp)
	b.latency.Observe(lat)
	if b.count%b.window == 0 {
		b.points = append(b.points, Point{AccessIndex: b.count, Throughput: b.sum / float64(b.window)})
		b.sum = 0
	}
}

func (b *seriesBuilder) finish(name string) Series {
	if rem := b.count % b.window; rem != 0 {
		b.points = append(b.points, Point{AccessIndex: b.count, Throughput: b.sum / float64(rem)})
	}
	s := Series{Name: name, Points: b.points, Accesses: b.count}
	s.Mean, s.Std = meanStd(b.all)
	s.LatencyP50 = b.latency.Quantile(0.50)
	s.LatencyP95 = b.latency.Quantile(0.95)
	s.LatencyP99 = b.latency.Quantile(0.99)
	return s
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var sq float64
	for _, v := range xs {
		d := v - mean
		sq += d * d
	}
	return mean, math.Sqrt(sq / float64(len(xs)))
}

// GBps formats bytes/second as the paper's GB/s.
func GBps(v float64) string { return fmt.Sprintf("%.2f GB/s", v/1e9) }

// Table is a rendered text table.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (header + rows).
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderSeries writes series as aligned text: one block per series with
// its movement bars, plus the summary line the evaluation quotes.
func RenderSeries(w io.Writer, series []Series) error {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "%s: mean %s ± %s over %d accesses (p50/p95/p99 latency %.1f/%.1f/%.1f ms)\n",
			s.Name, GBps(s.Mean), GBps(s.Std), s.Accesses,
			s.LatencyP50*1e3, s.LatencyP95*1e3, s.LatencyP99*1e3)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  access %6d  %s\n", p.AccessIndex, GBps(p.Throughput))
		}
		if len(s.Movements) > 0 {
			fmt.Fprintf(&b, "  movements:")
			for _, m := range s.Movements {
				fmt.Fprintf(&b, " [%d: %d files]", m.AccessIndex, m.Moved)
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
