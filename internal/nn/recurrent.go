package nn

import (
	"math/rand"

	"geomancy/internal/mat"
)

// SimpleRNN is the base recurrent layer: h_t = act(x_t·Wx + h_{t-1}·Wh + b).
// It consumes a window of consecutive accesses and emits the final hidden
// state, which downstream dense layers turn into a throughput prediction.
type SimpleRNN struct {
	In, Out int //geomancy:ephemeral In is re-derived from the input width when rebuilding from LayerSpecs
	Act     Activation

	Wx, Wh, B    *mat.Matrix
	dWx, dWh, dB *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass

	// forward cache for BPTT
	inputs []*mat.Matrix //geomancy:ephemeral forward cache (T steps of B×In), overwritten every window
	hs     []*mat.Matrix //geomancy:ephemeral forward cache (T steps of B×Out, post-activation), overwritten every window
}

// NewSimpleRNN returns a SimpleRNN layer with Xavier-initialized weights.
func NewSimpleRNN(in, out int, act Activation, rng *rand.Rand) *SimpleRNN {
	r := &SimpleRNN{
		In: in, Out: out, Act: act,
		Wx: mat.New(in, out), Wh: mat.New(out, out), B: mat.New(1, out),
		dWx: mat.New(in, out), dWh: mat.New(out, out), dB: mat.New(1, out),
	}
	r.Wx.XavierInit(rng, in, out)
	r.Wh.XavierInit(rng, out, out)
	return r
}

func (r *SimpleRNN) name() string          { return sprintfLayer(r.Out, "SimpleRNN", r.Act) }
func (r *SimpleRNN) outSize() int          { return r.Out }
func (r *SimpleRNN) params() []*mat.Matrix { return []*mat.Matrix{r.Wx, r.Wh, r.B} }
func (r *SimpleRNN) grads() []*mat.Matrix  { return []*mat.Matrix{r.dWx, r.dWh, r.dB} }

func (r *SimpleRNN) forwardSeq(steps []*mat.Matrix) *mat.Matrix {
	batch := steps[0].Rows
	r.inputs = steps
	r.hs = r.hs[:0]
	h := mat.New(batch, r.Out)
	for _, x := range steps {
		z := mat.Mul(x, r.Wx)
		mat.AddInPlace(z, mat.Mul(h, r.Wh))
		z.AddRowVector(r.B)
		z.ApplyInPlace(r.Act.Apply)
		h = z
		r.hs = append(r.hs, h)
	}
	return h
}

func (r *SimpleRNN) backwardSeq(dOut *mat.Matrix) {
	batch := dOut.Rows
	dh := dOut.Clone()
	for t := len(r.inputs) - 1; t >= 0; t-- {
		h := r.hs[t]
		dz := mat.New(batch, r.Out)
		for i := range dh.Data {
			dz.Data[i] = dh.Data[i] * r.Act.DerivFromOutput(h.Data[i])
		}
		var hPrev *mat.Matrix
		if t > 0 {
			hPrev = r.hs[t-1]
		} else {
			hPrev = mat.New(batch, r.Out)
		}
		mat.AddInPlace(r.dWx, mat.MulTransA(r.inputs[t], dz))
		mat.AddInPlace(r.dWh, mat.MulTransA(hPrev, dz))
		mat.AddInPlace(r.dB, dz.SumRows())
		dh = mat.MulTransB(dz, r.Wh)
	}
}

// LSTM implements the standard long short-term memory cell:
//
//	i = σ(x·Wi + h·Ui + bi)      f = σ(x·Wf + h·Uf + bf)
//	o = σ(x·Wo + h·Uo + bo)      g = act(x·Wg + h·Ug + bg)
//	c_t = f∘c_{t-1} + i∘g        h_t = o ∘ act(c_t)
//
// with the candidate/output activation act configurable (Table I uses ReLU).
type LSTM struct {
	In, Out int //geomancy:ephemeral In is re-derived from the input width when rebuilding from LayerSpecs
	Act     Activation

	Wi, Ui, Bi *mat.Matrix
	Wf, Uf, Bf *mat.Matrix
	Wo, Uo, Bo *mat.Matrix
	Wg, Ug, Bg *mat.Matrix

	dWi, dUi, dBi *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass
	dWf, dUf, dBf *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass
	dWo, dUo, dBo *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass
	dWg, dUg, dBg *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass

	// forward cache
	inputs                 []*mat.Matrix //geomancy:ephemeral forward cache, overwritten every window
	is, fs, os, gs, cs, hs []*mat.Matrix //geomancy:ephemeral gate/state forward cache, overwritten every window
	acs                    []*mat.Matrix //geomancy:ephemeral act(c_t) forward cache, overwritten every window
}

// NewLSTM returns an LSTM layer with Xavier-initialized weights and a
// forget-gate bias of 1, the standard trick to ease early training.
func NewLSTM(in, out int, act Activation, rng *rand.Rand) *LSTM {
	l := &LSTM{In: in, Out: out, Act: act}
	gate := func(w, u, b **mat.Matrix, dw, du, db **mat.Matrix) {
		*w = mat.New(in, out)
		*u = mat.New(out, out)
		*b = mat.New(1, out)
		(*w).XavierInit(rng, in, out)
		(*u).XavierInit(rng, out, out)
		*dw = mat.New(in, out)
		*du = mat.New(out, out)
		*db = mat.New(1, out)
	}
	gate(&l.Wi, &l.Ui, &l.Bi, &l.dWi, &l.dUi, &l.dBi)
	gate(&l.Wf, &l.Uf, &l.Bf, &l.dWf, &l.dUf, &l.dBf)
	gate(&l.Wo, &l.Uo, &l.Bo, &l.dWo, &l.dUo, &l.dBo)
	gate(&l.Wg, &l.Ug, &l.Bg, &l.dWg, &l.dUg, &l.dBg)
	l.Bf.Fill(1)
	return l
}

func (l *LSTM) name() string { return sprintfLayer(l.Out, "LSTM", l.Act) }
func (l *LSTM) outSize() int { return l.Out }

func (l *LSTM) params() []*mat.Matrix {
	return []*mat.Matrix{l.Wi, l.Ui, l.Bi, l.Wf, l.Uf, l.Bf, l.Wo, l.Uo, l.Bo, l.Wg, l.Ug, l.Bg}
}

func (l *LSTM) grads() []*mat.Matrix {
	return []*mat.Matrix{l.dWi, l.dUi, l.dBi, l.dWf, l.dUf, l.dBf, l.dWo, l.dUo, l.dBo, l.dWg, l.dUg, l.dBg}
}

func (l *LSTM) forwardSeq(steps []*mat.Matrix) *mat.Matrix {
	batch := steps[0].Rows
	l.inputs = steps
	l.is, l.fs, l.os, l.gs = nil, nil, nil, nil
	l.cs, l.hs, l.acs = nil, nil, nil
	h := mat.New(batch, l.Out)
	c := mat.New(batch, l.Out)
	gate := func(x *mat.Matrix, w, u, b *mat.Matrix, act Activation) *mat.Matrix {
		z := mat.Mul(x, w)
		mat.AddInPlace(z, mat.Mul(h, u))
		z.AddRowVector(b)
		z.ApplyInPlace(act.Apply)
		return z
	}
	for _, x := range steps {
		i := gate(x, l.Wi, l.Ui, l.Bi, Sigmoid)
		f := gate(x, l.Wf, l.Uf, l.Bf, Sigmoid)
		o := gate(x, l.Wo, l.Uo, l.Bo, Sigmoid)
		g := gate(x, l.Wg, l.Ug, l.Bg, l.Act)
		cNew := mat.Hadamard(f, c)
		mat.AddInPlace(cNew, mat.Hadamard(i, g))
		ac := cNew.Apply(l.Act.Apply)
		hNew := mat.Hadamard(o, ac)

		l.is = append(l.is, i)
		l.fs = append(l.fs, f)
		l.os = append(l.os, o)
		l.gs = append(l.gs, g)
		l.cs = append(l.cs, cNew)
		l.acs = append(l.acs, ac)
		l.hs = append(l.hs, hNew)
		c, h = cNew, hNew
	}
	return h
}

func (l *LSTM) backwardSeq(dOut *mat.Matrix) {
	batch := dOut.Rows
	T := len(l.inputs)
	dh := dOut.Clone()
	dc := mat.New(batch, l.Out)
	deriv := func(vals *mat.Matrix, act Activation, upstream *mat.Matrix) *mat.Matrix {
		out := mat.New(batch, l.Out)
		for i := range out.Data {
			out.Data[i] = upstream.Data[i] * act.DerivFromOutput(vals.Data[i])
		}
		return out
	}
	for t := T - 1; t >= 0; t-- {
		i, f, o, g := l.is[t], l.fs[t], l.os[t], l.gs[t]
		ac := l.acs[t]
		var cPrev, hPrev *mat.Matrix
		if t > 0 {
			cPrev, hPrev = l.cs[t-1], l.hs[t-1]
		} else {
			cPrev = mat.New(batch, l.Out)
			hPrev = mat.New(batch, l.Out)
		}

		// h_t = o ∘ act(c_t)
		do := mat.Hadamard(dh, ac)
		dAc := mat.Hadamard(dh, o)
		mat.AddInPlace(dc, deriv(ac, l.Act, dAc))

		// c_t = f∘c_{t-1} + i∘g
		df := mat.Hadamard(dc, cPrev)
		di := mat.Hadamard(dc, g)
		dg := mat.Hadamard(dc, i)

		dzi := deriv(i, Sigmoid, di)
		dzf := deriv(f, Sigmoid, df)
		dzo := deriv(o, Sigmoid, do)
		dzg := deriv(g, l.Act, dg)

		x := l.inputs[t]
		acc := func(dz, w, u, dw, du, db *mat.Matrix) {
			mat.AddInPlace(dw, mat.MulTransA(x, dz))
			mat.AddInPlace(du, mat.MulTransA(hPrev, dz))
			mat.AddInPlace(db, dz.SumRows())
		}
		acc(dzi, l.Wi, l.Ui, l.dWi, l.dUi, l.dBi)
		acc(dzf, l.Wf, l.Uf, l.dWf, l.dUf, l.dBf)
		acc(dzo, l.Wo, l.Uo, l.dWo, l.dUo, l.dBo)
		acc(dzg, l.Wg, l.Ug, l.dWg, l.dUg, l.dBg)

		dh = mat.MulTransB(dzi, l.Ui)
		mat.AddInPlace(dh, mat.MulTransB(dzf, l.Uf))
		mat.AddInPlace(dh, mat.MulTransB(dzo, l.Uo))
		mat.AddInPlace(dh, mat.MulTransB(dzg, l.Ug))
		dc = mat.Hadamard(dc, f)
	}
}

// GRU implements the gated recurrent unit:
//
//	z = σ(x·Wz + h·Uz + bz)      r = σ(x·Wr + h·Ur + br)
//	ĥ = act(x·Wh + (r∘h)·Uh + bh)
//	h_t = (1-z)∘h_{t-1} + z∘ĥ
type GRU struct {
	In, Out int //geomancy:ephemeral In is re-derived from the input width when rebuilding from LayerSpecs
	Act     Activation

	Wz, Uz, Bz *mat.Matrix
	Wr, Ur, Br *mat.Matrix
	Wh, Uh, Bh *mat.Matrix

	dWz, dUz, dBz *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass
	dWr, dUr, dBr *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass
	dWh, dUh, dBh *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass

	inputs          []*mat.Matrix //geomancy:ephemeral forward cache, overwritten every window
	zs, rs, hhs, hs []*mat.Matrix //geomancy:ephemeral gate/state forward cache, overwritten every window
}

// NewGRU returns a GRU layer with Xavier-initialized weights.
func NewGRU(in, out int, act Activation, rng *rand.Rand) *GRU {
	g := &GRU{In: in, Out: out, Act: act}
	gate := func(w, u, b **mat.Matrix, dw, du, db **mat.Matrix) {
		*w = mat.New(in, out)
		*u = mat.New(out, out)
		*b = mat.New(1, out)
		(*w).XavierInit(rng, in, out)
		(*u).XavierInit(rng, out, out)
		*dw = mat.New(in, out)
		*du = mat.New(out, out)
		*db = mat.New(1, out)
	}
	gate(&g.Wz, &g.Uz, &g.Bz, &g.dWz, &g.dUz, &g.dBz)
	gate(&g.Wr, &g.Ur, &g.Br, &g.dWr, &g.dUr, &g.dBr)
	gate(&g.Wh, &g.Uh, &g.Bh, &g.dWh, &g.dUh, &g.dBh)
	return g
}

func (g *GRU) name() string { return sprintfLayer(g.Out, "GRU", g.Act) }
func (g *GRU) outSize() int { return g.Out }

func (g *GRU) params() []*mat.Matrix {
	return []*mat.Matrix{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh}
}

func (g *GRU) grads() []*mat.Matrix {
	return []*mat.Matrix{g.dWz, g.dUz, g.dBz, g.dWr, g.dUr, g.dBr, g.dWh, g.dUh, g.dBh}
}

func (g *GRU) forwardSeq(steps []*mat.Matrix) *mat.Matrix {
	batch := steps[0].Rows
	g.inputs = steps
	g.zs, g.rs, g.hhs, g.hs = nil, nil, nil, nil
	h := mat.New(batch, g.Out)
	for _, x := range steps {
		z := mat.Mul(x, g.Wz)
		mat.AddInPlace(z, mat.Mul(h, g.Uz))
		z.AddRowVector(g.Bz)
		z.ApplyInPlace(Sigmoid.Apply)

		r := mat.Mul(x, g.Wr)
		mat.AddInPlace(r, mat.Mul(h, g.Ur))
		r.AddRowVector(g.Br)
		r.ApplyInPlace(Sigmoid.Apply)

		hh := mat.Mul(x, g.Wh)
		mat.AddInPlace(hh, mat.Mul(mat.Hadamard(r, h), g.Uh))
		hh.AddRowVector(g.Bh)
		hh.ApplyInPlace(g.Act.Apply)

		hNew := mat.New(batch, g.Out)
		for i := range hNew.Data {
			hNew.Data[i] = (1-z.Data[i])*h.Data[i] + z.Data[i]*hh.Data[i]
		}

		g.zs = append(g.zs, z)
		g.rs = append(g.rs, r)
		g.hhs = append(g.hhs, hh)
		g.hs = append(g.hs, hNew)
		h = hNew
	}
	return h
}

func (g *GRU) backwardSeq(dOut *mat.Matrix) {
	batch := dOut.Rows
	T := len(g.inputs)
	dh := dOut.Clone()
	for t := T - 1; t >= 0; t-- {
		z, r, hh := g.zs[t], g.rs[t], g.hhs[t]
		var hPrev *mat.Matrix
		if t > 0 {
			hPrev = g.hs[t-1]
		} else {
			hPrev = mat.New(batch, g.Out)
		}
		x := g.inputs[t]

		// h_t = (1-z)∘h_prev + z∘hh
		dz := mat.New(batch, g.Out)
		dhh := mat.New(batch, g.Out)
		dhPrev := mat.New(batch, g.Out)
		for i := range dh.Data {
			dz.Data[i] = dh.Data[i] * (hh.Data[i] - hPrev.Data[i])
			dhh.Data[i] = dh.Data[i] * z.Data[i]
			dhPrev.Data[i] = dh.Data[i] * (1 - z.Data[i])
		}

		// candidate: hh = act(x·Wh + (r∘hPrev)·Uh + bh)
		dzh := mat.New(batch, g.Out)
		for i := range dzh.Data {
			dzh.Data[i] = dhh.Data[i] * g.Act.DerivFromOutput(hh.Data[i])
		}
		rh := mat.Hadamard(r, hPrev)
		mat.AddInPlace(g.dWh, mat.MulTransA(x, dzh))
		mat.AddInPlace(g.dUh, mat.MulTransA(rh, dzh))
		mat.AddInPlace(g.dBh, dzh.SumRows())
		dRh := mat.MulTransB(dzh, g.Uh)
		dr := mat.Hadamard(dRh, hPrev)
		mat.AddInPlace(dhPrev, mat.Hadamard(dRh, r))

		// reset gate
		dzr := mat.New(batch, g.Out)
		for i := range dzr.Data {
			dzr.Data[i] = dr.Data[i] * Sigmoid.DerivFromOutput(r.Data[i])
		}
		mat.AddInPlace(g.dWr, mat.MulTransA(x, dzr))
		mat.AddInPlace(g.dUr, mat.MulTransA(hPrev, dzr))
		mat.AddInPlace(g.dBr, dzr.SumRows())
		mat.AddInPlace(dhPrev, mat.MulTransB(dzr, g.Ur))

		// update gate
		dzz := mat.New(batch, g.Out)
		for i := range dzz.Data {
			dzz.Data[i] = dz.Data[i] * Sigmoid.DerivFromOutput(z.Data[i])
		}
		mat.AddInPlace(g.dWz, mat.MulTransA(x, dzz))
		mat.AddInPlace(g.dUz, mat.MulTransA(hPrev, dzz))
		mat.AddInPlace(g.dBz, dzz.SumRows())
		mat.AddInPlace(dhPrev, mat.MulTransB(dzz, g.Uz))

		dh = dhPrev
	}
}
