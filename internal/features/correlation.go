// Package features implements the Geomancy feature pipeline (§V-D, §V-E):
// Pearson-correlation feature discovery against throughput, min-max
// normalization of numeric data into [0,1], and moving-average smoothing
// of ReplayDB batches.
package features

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either series is constant (no linear relationship can
// be measured) and panics on length mismatch.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("features: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Correlation pairs a feature name with its Pearson correlation against
// the modeling target.
type Correlation struct {
	Name string
	R    float64
}

// CorrelationReport computes, for each named feature column, the Pearson
// correlation against target — the Fig. 4 analysis. Columns are given as
// columns[i][j] = value of feature i at access j.
func CorrelationReport(names []string, columns [][]float64, target []float64) []Correlation {
	if len(names) != len(columns) {
		panic(fmt.Sprintf("features: %d names for %d columns", len(names), len(columns)))
	}
	out := make([]Correlation, len(names))
	for i, col := range columns {
		out[i] = Correlation{Name: names[i], R: Pearson(col, target)}
	}
	return out
}

// SortByAbs orders a correlation report by decreasing |R|, the paper's
// criterion for candidate features ("Choosing the features with largest
// absolute correlation values usually improves model accuracy").
func SortByAbs(report []Correlation) {
	sort.SliceStable(report, func(i, j int) bool {
		return math.Abs(report[i].R) > math.Abs(report[j].R)
	})
}
