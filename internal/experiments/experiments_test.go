package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"geomancy/internal/core"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{Seed: 3}.withDefaults()
	p := Paper(3)
	if o != p {
		t.Errorf("withDefaults = %+v, want paper scale %+v", o, p)
	}
	q := Quick(3)
	if q.withDefaults() != q {
		t.Error("Quick options should survive withDefaults unchanged")
	}
}

func TestSeriesBuilderBuckets(t *testing.T) {
	sb := newSeriesBuilder(3)
	for i := 1; i <= 7; i++ {
		sb.add(float64(i), float64(i)*1e-3)
	}
	s := sb.finish("x")
	// Buckets: (1,2,3)→2 at 3; (4,5,6)→5 at 6; (7)→7 at 7.
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	if s.Points[0].Throughput != 2 || s.Points[1].Throughput != 5 || s.Points[2].Throughput != 7 {
		t.Errorf("bucket means = %+v", s.Points)
	}
	if s.Points[2].AccessIndex != 7 {
		t.Errorf("final bucket index = %d, want 7", s.Points[2].AccessIndex)
	}
	if s.Accesses != 7 || s.Mean != 4 {
		t.Errorf("summary: accesses %d mean %v", s.Accesses, s.Mean)
	}
}

func TestSeriesBuilderDefaultWindow(t *testing.T) {
	sb := newSeriesBuilder(0)
	if sb.window != 500 {
		t.Errorf("default window = %d, want 500", sb.window)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || math.Abs(s-2) > 1e-12 {
		t.Errorf("meanStd = %v, %v; want 5, 2", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd should be 0,0")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Header:  []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
		Caption: "cap",
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T\n", "a    bb", "xxx  y", "cap"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,y", `q"u`}},
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"q\"\"u\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestGBps(t *testing.T) {
	if got := GBps(4.98e9); got != "4.98 GB/s" {
		t.Errorf("GBps = %q", got)
	}
}

func TestFig4CorrelationShape(t *testing.T) {
	res, err := Fig4(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || len(res.Correlations) == 0 {
		t.Fatal("empty result")
	}
	r := map[string]float64{}
	for _, c := range res.Correlations {
		r[c.Name] = c.R
	}
	// The Fig. 4 shape: rb and wb positive; rt and wt strongly negative;
	// fid ≈ 0; open/close timestamps positive.
	if r["rb"] <= 0 {
		t.Errorf("rb correlation = %v, want positive", r["rb"])
	}
	if r["rt"] >= -0.2 {
		t.Errorf("rt correlation = %v, want strongly negative", r["rt"])
	}
	if r["wt"] >= 0 {
		t.Errorf("wt correlation = %v, want negative", r["wt"])
	}
	if math.Abs(r["fid"]) > 0.15 {
		t.Errorf("fid correlation = %v, want ≈0", r["fid"])
	}
	if r["ots"] <= 0 || r["cts"] <= 0 {
		t.Errorf("timestamp correlations = %v, %v; want positive", r["ots"], r["cts"])
	}
	// The chosen set matches the paper's features.
	for _, f := range []string{"rb", "wb", "ots", "cts", "fid", "fsid"} {
		if !res.Chosen[f] {
			t.Errorf("feature %s should be flagged chosen", f)
		}
	}
	// Render smoke test.
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rb") {
		t.Error("table missing rb row")
	}
}

func TestBarRendering(t *testing.T) {
	if got := bar(0.5); got != "|++++++++++" {
		t.Errorf("bar(0.5) = %q", got)
	}
	if got := bar(-0.25); got != "-----|" {
		t.Errorf("bar(-0.25) = %q", got)
	}
	if got := bar(0); got != "|" {
		t.Errorf("bar(0) = %q", got)
	}
	if got := bar(2); got != "|"+strings.Repeat("+", 20) {
		t.Errorf("bar(2) = %q (must clamp)", got)
	}
	if got := bar(-2); got != strings.Repeat("-", 20)+"|" {
		t.Errorf("bar(-2) = %q (must clamp)", got)
	}
}

func TestTable1ListsAllModels(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 23 {
		t.Fatalf("Table I has %d rows, want 23", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][1], "16Z (Dense) ReLU") {
		t.Errorf("model 1 spec = %q", tab.Rows[0][1])
	}
	if !strings.Contains(tab.Rows[11][1], "LSTM") {
		t.Errorf("model 12 spec = %q", tab.Rows[11][1])
	}
}

func TestTestbedBootstrapCoversDevices(t *testing.T) {
	tb, err := newTestbed(5)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.db.Close()
	if err := tb.bootstrap(4, 6); err != nil {
		t.Fatal(err)
	}
	if tb.db.Len() == 0 {
		t.Fatal("bootstrap produced no telemetry")
	}
	if devs := len(tb.db.Summary()); devs < 4 {
		t.Errorf("bootstrap telemetry covers %d devices, want most of 6", devs)
	}
	st := core.PolicyState(tb.db, tb.cluster, tb.files)
	if len(st.Devices) != 6 || len(st.Files) != 24 {
		t.Errorf("policy state: %d devices, %d files", len(st.Devices), len(st.Files))
	}
	var withTp int
	for _, d := range st.Devices {
		if d.Throughput > 0 {
			withTp++
		}
	}
	if withTp < 4 {
		t.Errorf("only %d devices have observed throughput", withTp)
	}
	for _, f := range st.Files {
		if f.Accesses == 0 {
			t.Errorf("file %d never accessed during bootstrap", f.ID)
		}
	}
}

func TestDeviceDataset(t *testing.T) {
	tb, err := newTestbed(7)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.db.Close()
	if err := tb.bootstrap(4, 8); err != nil {
		t.Fatal(err)
	}
	idx := deviceIndex(tb.cluster.DeviceNames())
	ds, scaler, err := deviceDataset(tb.db, "file0", idx, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 20 || ds.X.Cols != 6 {
		t.Errorf("dataset %dx%d", ds.Len(), ds.X.Cols)
	}
	// Normalized.
	for _, v := range ds.X.Data {
		if v < 0 || v > 1 {
			t.Fatalf("feature %v outside [0,1]", v)
		}
	}
	for _, v := range ds.Y {
		if v < 0 || v > 1 {
			t.Fatalf("target %v outside [0,1]", v)
		}
	}
	if scaler == nil || scaler.Max <= scaler.Min {
		t.Errorf("scaler not fitted: %+v", scaler)
	}
	if _, _, err := deviceDataset(tb.db, "nonexistent", idx, 1000, 8); err == nil {
		t.Error("unknown device should error")
	}
}

func TestRenderSeries(t *testing.T) {
	s := Series{
		Name:      "x",
		Points:    []Point{{AccessIndex: 10, Throughput: 1e9}},
		Movements: []MovementBar{{AccessIndex: 5, Moved: 3}},
		Mean:      1e9,
		Accesses:  10,
	}
	var buf bytes.Buffer
	if err := RenderSeries(&buf, []Series{s}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"x: mean 1.00 GB/s", "access     10", "[5: 3 files]"} {
		if !strings.Contains(out, want) {
			t.Errorf("series render missing %q:\n%s", want, out)
		}
	}
}
