// Package telemetry is Geomancy's metrics and observability substrate: a
// dependency-free registry of counters, gauges, and fixed-bucket
// histograms (with p50/p95/p99 summaries), safe for concurrent use, plus a
// Prometheus-text-format HTTP exporter and a JSON snapshot writer for
// offline runs.
//
// Every layer of the closed loop reports through one Registry: the
// workload runner feeds per-device access latency/throughput histograms,
// the DRL engine publishes training duration and loss, the loop counts
// movements and deferrals, the Interface Daemon tracks connections and RPC
// latency, and the ReplayDB counts inserts and queries. The registry is
// deliberately tiny — metric handles are plain structs updated with atomic
// operations, so the per-access hot path costs a few atomic adds.
//
// All methods are nil-safe: a nil *Registry hands out nil metric handles
// whose update methods are no-ops, so instrumented components need no
// "metrics enabled?" branches.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelKey renders labels into a canonical identity string (sorted by key).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// kind distinguishes the metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every labeled series of one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]any // labelKey -> *Counter | *Gauge | *Histogram
	labels map[string][]Label
	order  []string // labelKeys in creation order
}

// Registry holds every metric family. The zero value is not usable; call
// NewRegistry. A nil Registry is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // creation order
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		help:     make(map[string]string),
	}
}

// family returns (creating if needed) the named family, enforcing that a
// name is only ever used with one metric kind.
func (r *Registry) family(name string, k kind, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name:    name,
				help:    r.help[name],
				kind:    k,
				buckets: buckets,
				series:  make(map[string]any),
				labels:  make(map[string][]Label),
			}
			r.families[name] = f
			r.names = append(r.names, name)
		}
		r.mu.Unlock()
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	return f
}

// seriesFor returns (creating via mk if needed) the labeled series of f.
func (f *family) seriesFor(labels []Label, mk func() any) any {
	key := labelKey(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s == nil {
		s = mk()
		f.series[key] = s
		f.labels[key] = append([]Label(nil), labels...)
		f.order = append(f.order, key)
	}
	return s
}

// Help sets the HELP text of a metric name (shown by the exporter). It may
// be called before or after the metric's first use.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	f := r.families[name]
	r.mu.Unlock()
	if f != nil {
		f.mu.Lock()
		f.help = text
		f.mu.Unlock()
	}
}

// Counter returns the counter for name+labels, creating it at zero.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, kindCounter, nil)
	return f.seriesFor(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for name+labels, creating it at zero.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, kindGauge, nil)
	return f.seriesFor(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket upper bounds (ascending; an implicit +Inf bucket is always
// appended). The buckets of the first creation win for the whole family.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, kindHistogram, buckets)
	return f.seriesFor(labels, func() any { return NewHistogram(f.buckets) }).(*Histogram)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d (CAS loop; safe for concurrent use).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram of non-negative observations.
// Observations and reads are lock-free.
type Histogram struct {
	upper  []float64 // ascending finite upper bounds
	counts []atomic.Uint64
	over   atomic.Uint64 // the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a standalone histogram (also usable outside any
// registry, e.g. for per-run percentile summaries). Buckets are ascending
// finite upper bounds; nil selects DefLatencyBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	// Binary search for the first bucket whose bound >= v.
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the mean observation, or 0 with no data.
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket — the standard fixed-bucket estimate
// Prometheus's histogram_quantile computes server-side. Values beyond the
// last finite bound clamp to it. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			hi := h.upper[i]
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	// Rank falls in the overflow bucket: clamp to the last finite bound.
	return h.upper[len(h.upper)-1]
}

// BucketCount is one (upper bound, cumulative count) pair of a snapshot.
type BucketCount struct {
	Upper      float64 `json:"le"`
	Cumulative uint64  `json:"count"`
}

// HistogramSummary is a point-in-time histogram digest.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram into count/sum/mean and the paper-relevant
// percentiles.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// buckets returns the cumulative bucket counts including +Inf last.
func (h *Histogram) bucketCounts() []BucketCount {
	out := make([]BucketCount, 0, len(h.counts)+1)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out = append(out, BucketCount{Upper: h.upper[i], Cumulative: cum})
	}
	cum += h.over.Load()
	out = append(out, BucketCount{Upper: math.Inf(1), Cumulative: cum})
	return out
}

// ExpBuckets returns n exponentially spaced bucket bounds: start,
// start*factor, start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket layouts for the quantities the closed loop observes.
var (
	// DefLatencyBuckets covers access latencies from 100 µs to ~50 s.
	DefLatencyBuckets = ExpBuckets(1e-4, 2, 20)
	// DefThroughputBuckets covers per-access throughput from 16 MB/s to
	// ~16 GB/s (the Bluesky devices span 0.55–14 GB/s).
	DefThroughputBuckets = ExpBuckets(16e6, 2, 11)
	// DefDurationBuckets covers coarse durations (training, RPC handling,
	// moves) from 1 ms to ~1000 s.
	DefDurationBuckets = ExpBuckets(1e-3, 4, 11)
	// DefBatchSizeBuckets covers batched-inference sizes from 1 row to
	// 32768 (files × candidate devices per decision).
	DefBatchSizeBuckets = ExpBuckets(1, 2, 16)
)
