package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", L("dev", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("test_total", L("dev", "a")) != c {
		t.Error("counter identity not stable across lookups")
	}
	if r.Counter("test_total", L("dev", "b")) == c {
		t.Error("different labels must yield a different series")
	}

	g := r.Gauge("test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_use")
	defer func() {
		if recover() == nil {
			t.Error("reusing a counter name as a gauge should panic")
		}
	}()
	r.Gauge("dual_use")
}

func TestHistogramQuantiles(t *testing.T) {
	bounds := make([]float64, 100) // 1..100
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := NewHistogram(bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 5050 {
		t.Errorf("sum = %v, want 5050", got)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 1.5},
		{0.95, 95, 1.5},
		{0.99, 99, 1.5},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.0f = %v, want ≈%v", tc.q*100, got, tc.want)
		}
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 > p99 {
		t.Errorf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	// Overflow clamps to the last finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want 2 (last bound)", got)
	}
}

func TestHistogramQuantileAccuracyUniform(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-4, 2, 24))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		h.Observe(rng.Float64()) // uniform [0,1)
	}
	// Exponential buckets are coarse; within-bucket interpolation should
	// still land within the bucket-resolution error of the true quantile.
	if got := h.Quantile(0.5); got < 0.35 || got > 0.70 {
		t.Errorf("p50 of U[0,1) = %v, want ≈0.5", got)
	}
	// p95 falls in the (0.82, 1.64] bucket; the estimate is only as good
	// as the bucket resolution.
	if got := h.Quantile(0.95); got < 0.82 || got > 1.65 {
		t.Errorf("p95 of U[0,1) = %v, want within its bucket (0.82, 1.64]", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", nil).Observe(1)
	r.Help("x", "nope")
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Error(err)
	}
	var h *Histogram
	h.Observe(1)
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("nil histogram should read zero")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("geo_ops_total", L("device", "pic")).Add(3)
	r.Gauge("geo_loss").Set(0.25)
	h := r.Histogram("geo_lat_seconds", []float64{0.1, 1}, L("device", "pic"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Help("geo_ops_total", "Operations.")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP geo_ops_total Operations.",
		"# TYPE geo_ops_total counter",
		`geo_ops_total{device="pic"} 3`,
		"# TYPE geo_loss gauge",
		"geo_loss 0.25",
		"# TYPE geo_lat_seconds histogram",
		`geo_lat_seconds_bucket{device="pic",le="0.1"} 1`,
		`geo_lat_seconds_bucket{device="pic",le="1"} 2`,
		`geo_lat_seconds_bucket{device="pic",le="+Inf"} 3`,
		`geo_lat_seconds_sum{device="pic"} 5.55`,
		`geo_lat_seconds_count{device="pic"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

// Help installed before the metric's first use (the RegisterHelp pattern)
// must still reach the exposition.
func TestHelpBeforeFirstUse(t *testing.T) {
	r := NewRegistry()
	r.Help("pre_total", "Registered ahead of use.")
	r.Counter("pre_total").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# HELP pre_total Registered ahead of use.") {
		t.Errorf("pre-registered help lost:\n%s", b.String())
	}

	r2 := NewRegistry()
	RegisterHelp(r2)
	r2.Counter(MetricMovementsTotal).Inc()
	b.Reset()
	if err := r2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# HELP "+MetricMovementsTotal+" ") {
		t.Errorf("RegisterHelp text missing for %s:\n%s", MetricMovementsTotal, b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L("path", `a"b\c`)).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c"} 1`) {
		t.Errorf("label not escaped: %s", b.String())
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", L("device", "var")).Add(7)
	r.Histogram("snap_lat", []float64{1, 2, 4}).Observe(1.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Sample `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("snapshot has %d samples, want 2", len(doc.Metrics))
	}
	byName := map[string]Sample{}
	for _, s := range doc.Metrics {
		byName[s.Name] = s
	}
	if c := byName["snap_total"]; c.Value == nil || *c.Value != 7 || c.Labels["device"] != "var" {
		t.Errorf("counter sample = %+v", c)
	}
	if h := byName["snap_lat"]; h.Histogram == nil || h.Histogram.Count != 1 {
		t.Errorf("histogram sample = %+v", h)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines —
// run with -race. Writers update existing series, create new ones, and
// readers render concurrently.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := L("device", fmt.Sprintf("d%d", w%3))
			for i := 0; i < perWorker; i++ {
				r.Counter("conc_total", dev).Inc()
				r.Gauge("conc_gauge", dev).Add(1)
				r.Histogram("conc_lat", DefLatencyBuckets, dev).Observe(float64(i%100) / 1000)
				if i%500 == 0 {
					// Concurrent reads while writes continue.
					_ = r.Snapshot()
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, d := range []string{"d0", "d1", "d2"} {
		total += r.Counter("conc_total", L("device", d)).Value()
	}
	if want := uint64(workers * perWorker); total != want {
		t.Errorf("lost updates: counter sum = %d, want %d", total, want)
	}
	h := r.Histogram("conc_lat", DefLatencyBuckets, L("device", "d0"))
	if h.Count() == 0 {
		t.Error("histogram empty after concurrent writes")
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(42)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "served_total 42") {
		t.Errorf("metrics body missing counter:\n%s", body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Metrics []Sample `json:"metrics"`
	}
	if err := json.Unmarshal(jbody, &doc); err != nil {
		t.Fatalf("bad JSON endpoint: %v", err)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Name != "served_total" {
		t.Errorf("json endpoint = %+v", doc.Metrics)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if len(exp) != 4 || exp[3] != 8 {
		t.Errorf("ExpBuckets = %v", exp)
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil {
		t.Error("degenerate bucket specs should return nil")
	}
}
