package nn

import (
	"fmt"
	"math"

	"geomancy/internal/mat"
)

// Optimizer updates parameters from accumulated gradients. Step is called
// once per mini-batch; implementations must not retain the slices.
type Optimizer interface {
	Step(params, grads []*mat.Matrix)
}

// SGD is plain stochastic gradient descent, the optimizer the paper settled
// on after finding Adam gave a higher mean and standard deviation of the
// absolute relative error (§V-G).
type SGD struct {
	// LR is the learning rate.
	LR float64
	// Clip, when positive, bounds each gradient element to [-Clip, Clip].
	// The paper's diverging models (2 and 5 in Table II) are reproduced
	// with Clip = 0 (no clipping).
	Clip float64
}

// Step applies params -= LR * grads.
func (s *SGD) Step(params, grads []*mat.Matrix) {
	for i, p := range params {
		g := grads[i]
		if s.Clip > 0 {
			for j, v := range g.Data {
				if v > s.Clip {
					g.Data[j] = s.Clip
				} else if v < -s.Clip {
					g.Data[j] = -s.Clip
				}
			}
		}
		mat.AddScaled(p, -s.LR, g)
	}
}

// Adam implements the Adam optimizer (Kingma & Ba). The paper evaluated it
// and rejected it in favour of SGD; it is retained for the optimizer
// ablation benchmark.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns an Adam optimizer with the conventional defaults
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies the Adam update. The first call sizes the moment buffers to
// match the parameter list; the same network must be passed on every call.
func (a *Adam) Step(params, grads []*mat.Matrix) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Data))
			a.v[i] = make([]float64, len(p.Data))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		m, v := a.m[i], a.v[i]
		for j, gv := range g.Data {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*gv
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*gv*gv
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// OptimizerState is the serializable snapshot of an optimizer. For SGD it
// is just the hyperparameters; for Adam it additionally carries the step
// counter and both moment buffers, whose loss would otherwise reset the
// bias-corrected learning-rate schedule on resume (the moments rebuild in
// a few steps, but the restarted warm-up measurably bends the loss curve).
type OptimizerState struct {
	Kind string // "SGD" or "Adam"

	// SGD hyperparameters.
	LR, Clip float64

	// Adam hyperparameters and accumulated state.
	Beta1, Beta2, Eps float64
	T                 int
	M, V              [][]float64
}

// State captures the optimizer's hyperparameters.
//
//geomancy:allow testonly optimizer-state serialization, exercised by optimizer_state_test.go; ROADMAP item 7 warm-start axis decides whether it ships
func (s *SGD) State() OptimizerState {
	return OptimizerState{Kind: "SGD", LR: s.LR, Clip: s.Clip}
}

// State captures the optimizer, including the step counter and moment
// buffers, so a restored Adam continues its bias-correction schedule
// exactly where it left off.
//
//geomancy:allow testonly optimizer-state serialization, exercised by optimizer_state_test.go; ROADMAP item 7 warm-start axis decides whether it ships
func (a *Adam) State() OptimizerState {
	return OptimizerState{
		Kind:  "Adam",
		LR:    a.LR,
		Beta1: a.Beta1,
		Beta2: a.Beta2,
		Eps:   a.Eps,
		T:     a.t,
		M:     copyMoments(a.m),
		V:     copyMoments(a.v),
	}
}

func copyMoments(src [][]float64) [][]float64 {
	if src == nil {
		return nil
	}
	out := make([][]float64, len(src))
	for i, s := range src {
		out[i] = append([]float64(nil), s...)
	}
	return out
}

// OptimizerStateOf captures any optimizer this package knows how to
// serialize; unknown implementations return an error so callers fail
// loudly instead of silently dropping training state.
//
//geomancy:allow testonly optimizer-state serialization, exercised by optimizer_state_test.go; ROADMAP item 7 warm-start axis decides whether it ships
func OptimizerStateOf(opt Optimizer) (OptimizerState, error) {
	switch o := opt.(type) {
	case *SGD:
		return o.State(), nil
	case *Adam:
		return o.State(), nil
	default:
		return OptimizerState{}, fmt.Errorf("nn: cannot serialize optimizer %T", opt)
	}
}

// OptimizerFromState reconstructs the optimizer a state was captured
// from. An Adam resumes mid-schedule: its next Step continues from step
// T+1 with the restored moments.
func OptimizerFromState(st OptimizerState) (Optimizer, error) {
	switch st.Kind {
	case "SGD":
		return &SGD{LR: st.LR, Clip: st.Clip}, nil
	case "Adam":
		return &Adam{
			LR:    st.LR,
			Beta1: st.Beta1,
			Beta2: st.Beta2,
			Eps:   st.Eps,
			t:     st.T,
			m:     copyMoments(st.M),
			v:     copyMoments(st.V),
		}, nil
	default:
		return nil, fmt.Errorf("nn: unknown optimizer kind %q", st.Kind)
	}
}
