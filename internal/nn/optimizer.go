package nn

import (
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
}

// Step applies params -= LR * grads.
func (s *SGD) Step(params, grads []*mat.Matrix) {
	for i, p := range params {
		mat.AddScaled(p, -s.LR, grads[i])
	}
}

// Adam's conventional hyperparameters. They are typed so that 1-beta1 and
// 1-beta2 round exactly as the float64 arithmetic they replace did.
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// Adam implements the Adam optimizer (Kingma & Ba) with β1 = 0.9,
// β2 = 0.999, ε = 1e-8. The paper evaluated it and rejected it in favour of
// SGD; it is retained for the optimizer ablation benchmark.
type Adam struct {
	LR float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns an Adam optimizer at learning rate lr.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr}
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
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		m, v := a.m[i], a.v[i]
		for j, gv := range g.Data {
			m[j] = beta1*m[j] + (1-beta1)*gv
			v[j] = beta2*v[j] + (1-beta2)*gv*gv
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + eps)
		}
	}
}
