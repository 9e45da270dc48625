package features

import (
	"fmt"
	"math"

	"geomancy/internal/mat"
)

// MinMaxScaler normalizes each feature column into [0,1], the
// transformation the Interface Daemon applies before training (§V-E:
// "the numerical data is normalized ... to decimal values between zero
// and one").
type MinMaxScaler struct {
	Min, Max []float64
	fitted   bool
}

// Fit learns per-column minima and maxima from x.
func (s *MinMaxScaler) Fit(x *mat.Matrix) {
	s.Min = make([]float64, x.Cols)
	s.Max = make([]float64, x.Cols)
	for c := 0; c < x.Cols; c++ {
		s.Min[c] = math.Inf(1)
		s.Max[c] = math.Inf(-1)
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c, v := range row {
			if v < s.Min[c] {
				s.Min[c] = v
			}
			if v > s.Max[c] {
				s.Max[c] = v
			}
		}
	}
	// Degenerate columns (constant, or no rows) normalize to 0.
	for c := 0; c < x.Cols; c++ {
		if math.IsInf(s.Min[c], 1) {
			s.Min[c], s.Max[c] = 0, 0
		}
	}
	s.fitted = true
}

// Transform returns a copy of x with every column scaled into [0,1].
// Values outside the fitted range are clamped.
func (s *MinMaxScaler) Transform(x *mat.Matrix) *mat.Matrix {
	s.mustFit(x.Cols)
	out := x.Clone()
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		for c := range row {
			row[c] = s.TransformValue(c, row[c])
		}
	}
	return out
}

// TransformValue scales a single value of column c into [0,1], clamping
// out-of-range inputs.
func (s *MinMaxScaler) TransformValue(c int, v float64) float64 {
	span := s.Max[c] - s.Min[c]
	if span == 0 {
		return 0
	}
	t := (v - s.Min[c]) / span
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// FitTransform is Fit followed by Transform.
func (s *MinMaxScaler) FitTransform(x *mat.Matrix) *mat.Matrix {
	s.Fit(x)
	return s.Transform(x)
}

func (s *MinMaxScaler) mustFit(cols int) {
	if !s.fitted {
		panic("features: MinMaxScaler used before Fit")
	}
	if cols > len(s.Min) {
		panic(fmt.Sprintf("features: scaler fitted for %d columns, got %d", len(s.Min), cols))
	}
}

// ScalarScaler normalizes a single series into [0,1]; used for targets.
type ScalarScaler struct {
	Min, Max float64
	fitted   bool
}

// Fit learns the range of xs.
func (s *ScalarScaler) Fit(xs []float64) {
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	if math.IsInf(s.Min, 1) {
		s.Min, s.Max = 0, 0
	}
	s.fitted = true
}

// Transform scales v into [0,1] with clamping.
func (s *ScalarScaler) Transform(v float64) float64 {
	if !s.fitted {
		panic("features: ScalarScaler used before Fit")
	}
	span := s.Max - s.Min
	if span == 0 {
		return 0
	}
	t := (v - s.Min) / span
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// TransformAll scales a whole series.
func (s *ScalarScaler) TransformAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = s.Transform(v)
	}
	return out
}

// Inverse maps a normalized value back to the original scale.
func (s *ScalarScaler) Inverse(v float64) float64 {
	if !s.fitted {
		panic("features: ScalarScaler used before Fit")
	}
	return s.Min + v*(s.Max-s.Min)
}

// MinMaxState is the serializable snapshot of a MinMaxScaler, used by the
// checkpoint plane to carry fitted normalization across a restart.
type MinMaxState struct {
	Min, Max []float64
	Fitted   bool
}

// State captures the scaler, including whether it has been fitted.
func (s *MinMaxScaler) State() MinMaxState {
	return MinMaxState{
		Min:    append([]float64(nil), s.Min...),
		Max:    append([]float64(nil), s.Max...),
		Fitted: s.fitted,
	}
}

// RestoreState overwrites the scaler with a previously captured state.
func (s *MinMaxScaler) RestoreState(st MinMaxState) {
	s.Min = append([]float64(nil), st.Min...)
	s.Max = append([]float64(nil), st.Max...)
	s.fitted = st.Fitted
}

// ScalarState is the serializable snapshot of a ScalarScaler.
type ScalarState struct {
	Min, Max float64
	Fitted   bool
}

// State captures the scaler, including whether it has been fitted.
func (s *ScalarScaler) State() ScalarState {
	return ScalarState{Min: s.Min, Max: s.Max, Fitted: s.fitted}
}

// RestoreState overwrites the scaler with a previously captured state.
func (s *ScalarScaler) RestoreState(st ScalarState) {
	s.Min, s.Max, s.fitted = st.Min, st.Max, st.Fitted
}
