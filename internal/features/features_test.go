package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geomancy/internal/mat"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("constant x Pearson = %v, want 0", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Errorf("empty Pearson = %v, want 0", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	if r := Pearson(x, y); math.Abs(r) > 0.05 {
		t.Errorf("independent series Pearson = %v, want ~0", r)
	}
}

func TestPearsonLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

// Property: Pearson is symmetric and invariant under positive affine
// transformation.
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64() + 0.5*x[i]
		}
		r1 := Pearson(x, y)
		if math.Abs(r1-Pearson(y, x)) > 1e-12 {
			return false
		}
		scaled := make([]float64, n)
		for i := range x {
			scaled[i] = 3*x[i] + 7
		}
		return math.Abs(r1-Pearson(scaled, y)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationReportAndSort(t *testing.T) {
	target := []float64{1, 2, 3, 4}
	cols := [][]float64{
		{1, 2, 3, 4},     // r = 1
		{4, 3, 2, 1},     // r = -1
		{1, 1, 1, 1},     // r = 0
		{1, 2, 2.5, 3.2}, // strong positive
	}
	rep := CorrelationReport([]string{"a", "b", "c", "d"}, cols, target)
	if len(rep) != 4 {
		t.Fatalf("got %d entries", len(rep))
	}
	SortByAbs(rep)
	if rep[len(rep)-1].Name != "c" {
		t.Errorf("weakest feature should sort last, got %q", rep[len(rep)-1].Name)
	}
	if math.Abs(rep[0].R) < math.Abs(rep[1].R) {
		t.Error("not sorted by |R| descending")
	}
}

func TestCorrelationReportMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CorrelationReport([]string{"a"}, nil, nil)
}

func TestMinMaxScaler(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 10}, {5, 20}, {10, 30}})
	var s MinMaxScaler
	out := s.FitTransform(x)
	want := mat.FromRows([][]float64{{0, 0}, {0.5, 0.5}, {1, 1}})
	if !mat.Equal(out, want, 1e-12) {
		t.Errorf("FitTransform = %v, want %v", out, want)
	}
	// Clamping outside the fitted range.
	if got := s.TransformValue(0, -5); got != 0 {
		t.Errorf("below-range = %v, want 0", got)
	}
	if got := s.TransformValue(0, 50); got != 1 {
		t.Errorf("above-range = %v, want 1", got)
	}
}

func TestMinMaxScalerConstantColumn(t *testing.T) {
	x := mat.FromRows([][]float64{{7, 1}, {7, 2}})
	var s MinMaxScaler
	out := s.FitTransform(x)
	if out.At(0, 0) != 0 || out.At(1, 0) != 0 {
		t.Error("constant column should normalize to 0")
	}
}

func TestMinMaxScalerUnfittedPanics(t *testing.T) {
	var s MinMaxScaler
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Transform(mat.New(1, 1))
}

func TestScalarScaler(t *testing.T) {
	var s ScalarScaler
	s.Fit([]float64{10, 20, 30})
	if got := s.Transform(20); got != 0.5 {
		t.Errorf("Transform(20) = %v, want 0.5", got)
	}
	if got := s.Transform(-100); got != 0 {
		t.Errorf("clamp low = %v", got)
	}
	if got := s.Transform(100); got != 1 {
		t.Errorf("clamp high = %v", got)
	}
	if got := s.Inverse(0.5); got != 20 {
		t.Errorf("Inverse = %v, want 20", got)
	}
	all := s.TransformAll([]float64{10, 30})
	if all[0] != 0 || all[1] != 1 {
		t.Errorf("TransformAll = %v", all)
	}
	var empty ScalarScaler
	empty.Fit(nil)
	if got := empty.Transform(5); got != 0 {
		t.Errorf("empty-fit Transform = %v, want 0", got)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Window 1 is identity.
	id := MovingAverage(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Errorf("window-1 MA changed values")
		}
	}
}

func TestMovingAverageWindowLargerThanSeries(t *testing.T) {
	got := MovingAverage([]float64{2, 4}, 10)
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("MA = %v, want [2 3]", got)
	}
}

func TestMovingAverageBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MovingAverage([]float64{1}, 0)
}

// Property: a moving average never exceeds the running max or undercuts
// the running min of its window.
func TestMovingAverageBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		w := 1 + rng.Intn(10)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		ma := MovingAverage(xs, w)
		for i := range xs {
			lo, hi := math.Inf(1), math.Inf(-1)
			start := i - w + 1
			if start < 0 {
				start = 0
			}
			for j := start; j <= i; j++ {
				lo = math.Min(lo, xs[j])
				hi = math.Max(hi, xs[j])
			}
			if ma[i] < lo-1e-9 || ma[i] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
