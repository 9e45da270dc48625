package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"geomancy/internal/mat"
)

// DefaultWindow is the sequence length recurrent models see: the number of
// consecutive past accesses folded into one training sample. Dense models
// ignore it.
const DefaultWindow = 8

// MaxWindow is the longest window State.Network accepts. A window
// sizes a recurrent batch's input (window × rows × InSize values per
// batch), so it is bounded like a layer width is; Table I's models read
// DefaultWindow, and a thousand-step BPTT is already far past them.
const MaxWindow = 1024

// Network is a feed-forward stack, optionally headed by one recurrent layer
// (every recurrent architecture in Table I has exactly one, in first
// position). It predicts a scalar throughput from a feature vector (dense
// models) or from a window of consecutive feature vectors (recurrent
// models).
type Network struct {
	// Desc is the Table I-style architecture description.
	Desc string
	// InSize is the feature count Z.
	InSize int
	// Window is the BPTT window for recurrent networks (DefaultWindow if
	// unset at build time); 1 effectively for dense networks.
	Window int

	rec  seqLayer
	flat []*Dense
}

// NewNetwork returns an empty network expecting inSize input features.
func NewNetwork(inSize int) *Network {
	return &Network{InSize: inSize, Window: DefaultWindow}
}

// AddDense appends a fully connected layer of the given width.
func (n *Network) AddDense(units int, act Activation, rng *rand.Rand) *Network {
	n.flat = append(n.flat, NewDense(n.lastSize(), units, act, rng))
	return n
}

// AddSimpleRNN sets the recurrent head; valid only as the first layer.
func (n *Network) AddSimpleRNN(units int, act Activation, rng *rand.Rand) *Network {
	n.setRecurrent(NewSimpleRNN(n.InSize, units, act, rng))
	return n
}

// AddLSTM sets the recurrent head; valid only as the first layer.
func (n *Network) AddLSTM(units int, act Activation, rng *rand.Rand) *Network {
	n.setRecurrent(NewLSTM(n.InSize, units, act, rng))
	return n
}

// AddGRU sets the recurrent head; valid only as the first layer.
func (n *Network) AddGRU(units int, act Activation, rng *rand.Rand) *Network {
	n.setRecurrent(NewGRU(n.InSize, units, act, rng))
	return n
}

func (n *Network) setRecurrent(l seqLayer) {
	if n.rec != nil || len(n.flat) > 0 {
		panic("nn: recurrent layer must be the first layer")
	}
	n.rec = l
}

func (n *Network) lastSize() int {
	if len(n.flat) > 0 {
		return n.flat[len(n.flat)-1].outSize()
	}
	if n.rec != nil {
		return n.rec.outSize()
	}
	return n.InSize
}

// IsRecurrent reports whether the network consumes access windows rather
// than single feature vectors.
func (n *Network) IsRecurrent() bool { return n.rec != nil }

// OutSize returns the width of the network output (1 for every Table I
// model).
func (n *Network) OutSize() int { return n.lastSize() }

// String returns the architecture in Table I notation.
func (n *Network) String() string {
	if n.Desc != "" {
		return n.Desc
	}
	var parts []string
	if n.rec != nil {
		parts = append(parts, n.rec.name())
	}
	for _, l := range n.flat {
		parts = append(parts, l.name())
	}
	return strings.Join(parts, ", ")
}

// Params returns all trainable parameter matrices in layer order.
func (n *Network) Params() []*mat.Matrix {
	var ps []*mat.Matrix
	if n.rec != nil {
		ps = append(ps, n.rec.params()...)
	}
	for _, l := range n.flat {
		ps = append(ps, l.params()...)
	}
	return ps
}

// GradsRef returns the matching gradient accumulators.
func (n *Network) GradsRef() []*mat.Matrix {
	var gs []*mat.Matrix
	if n.rec != nil {
		gs = append(gs, n.rec.grads()...)
	}
	for _, l := range n.flat {
		gs = append(gs, l.grads()...)
	}
	return gs
}

// ParamCount returns the number of trainable scalars.
func (n *Network) ParamCount() int {
	var c int
	for _, p := range n.Params() {
		c += len(p.Data)
	}
	return c
}

// Forward runs a batch through the network. For dense networks pass the
// B×Z feature matrix in flat and nil for seq; for recurrent networks pass
// the T timestep matrices (each B×Z) in seq and nil for flat. The result
// is a fresh B×OutSize matrix: ForwardBatch on a scratch of its own.
func (n *Network) Forward(flat *mat.Matrix, seq []*mat.Matrix) *mat.Matrix {
	return n.ForwardBatch(flat, seq, &Scratch{})
}

// FitConfig controls a training run.
type FitConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Shuffle reshuffles sample order each epoch when an Rng is provided.
	Rng *rand.Rand
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(epoch int, trainLoss float64)
	// Parallelism is ignored: Fit runs every minibatch whole, on the
	// caller's goroutine, so no value here can change a trained bit
	// (TestFitGoldenWeights reaches every golden at 1 and at 4). The field
	// stays only until the benchmark's nn.fit_epoch probe stops setting it.
	Parallelism int
	// Ctx, when non-nil, cancels training between epochs; Fit returns the
	// loss so far together with ctx.Err().
	Ctx context.Context
}

// ErrNoData is returned when a dataset has no usable samples.
var ErrNoData = errors.New("nn: dataset has no samples")

// Fit trains the network on ds with mini-batch gradient descent and MSE
// loss, returning the final training loss. The same entry point serves
// dense and recurrent models; recurrent sample windows are assembled from
// consecutive dataset rows.
func (n *Network) Fit(ds *Dataset, cfg FitConfig) (float64, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = &SGD{LR: 0.01}
	}
	// The anchors, shuffled in place each epoch: one int32 per sample.
	first := n.firstAnchor()
	if ds.Len() <= first {
		return 0, ErrNoData
	}
	if ds.Len() > math.MaxInt32 {
		return 0, fmt.Errorf("nn: %d samples exceed Fit's int32 row indexes", ds.Len())
	}
	idx := make([]int32, ds.Len()-first)
	for i := range idx {
		idx[i] = int32(first + i)
	}
	params := n.Params()
	batchRows := cfg.BatchSize
	if batchRows > len(idx) {
		batchRows = len(idx)
	}
	tr := newTrainer(n, ds, batchRows)

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return lastLoss, err
			}
		}
		if cfg.Rng != nil {
			cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += tr.minibatch(idx[start:end])
			batches++
			cfg.Optimizer.Step(params, tr.grads)
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			// Numerically diverged; further epochs cannot recover.
			return lastLoss, nil
		}
	}
	return lastLoss, nil
}

// BlockRows is the block height of the batched forward pass — 256 rows of
// the paper model's activations are a third of a megabyte, which stays in
// L2 — and the height of the engine's scoring runs, whose lanes keep their
// scratch from one decision to the next. Predict, whose scratch dies with
// the call, scores predictRows at a time instead.
const BlockRows = 256

// predictRows is Predict's block height: a minibatch (FitConfig's default
// BatchSize, and the engine's), so scoring a validation partition after a
// fit needs no more activation scratch than one training step did.
const predictRows = 32

// firstAnchor is the first dataset row usable as a sample anchor: row 0
// for dense models, the first row with a full history window for
// recurrent ones. Every row from it on is an anchor.
func (n *Network) firstAnchor() int {
	if n.rec != nil {
		return n.window() - 1
	}
	return 0
}

func (n *Network) window() int {
	if n.Window > 0 {
		return n.Window
	}
	return DefaultWindow
}

// gatherSeq gathers a recurrent network's input for the given anchor
// rows: one B×Z matrix per timestep of the window ending at each anchor.
func (n *Network) gatherSeq(ds *Dataset, rows []int32) []*mat.Matrix {
	w := n.window()
	seq := make([]*mat.Matrix, w)
	for t := 0; t < w; t++ {
		step := mat.New(len(rows), n.InSize)
		for i, r := range rows {
			step.SetRow(i, ds.X.Row(int(r)-w+1+t))
		}
		seq[t] = step
	}
	return seq
}

// Predict returns the network outputs for every anchor of ds — the
// consecutive rows from first on, so preds[i] is row first+i's — or nil
// when ds is shorter than a window. It scores predictRows anchors at a
// time: dense networks score row views of ds.X, recurrent ones windows
// gathered per block, and either way the dense stack runs through
// ForwardBatch on one scratch scoped to the call. A dense call therefore
// allocates its predictions and one minibatch-high set of activation
// buffers, however long ds is. A row's output does not depend on the rows
// scored beside it, so the block height changes no value.
func (n *Network) Predict(ds *Dataset) (preds []float64, first int) {
	first = n.firstAnchor()
	if ds.Len() <= first {
		return nil, first
	}
	preds = make([]float64, ds.Len()-first)
	var s Scratch
	var view mat.Matrix            // one row view, re-pointed per block
	var anchors [predictRows]int32 // a recurrent block's anchor rows
	for lo := 0; lo < len(preds); lo += predictRows {
		hi := min(lo+predictRows, len(preds))
		var flat *mat.Matrix
		var seq []*mat.Matrix
		if n.rec == nil {
			view = rowsOf(ds.X, first+lo, first+hi)
			flat = &view
		} else {
			for i := range hi - lo {
				anchors[i] = int32(first + lo + i)
			}
			seq = n.gatherSeq(ds, anchors[:hi-lo])
		}
		out := n.ForwardBatch(flat, seq, &s)
		for r := range out.Rows {
			preds[lo+r] = out.At(r, 0)
		}
	}
	return preds, first
}

// PredictOne returns the scalar prediction for a single feature vector
// (dense models) or window of vectors (recurrent models, len == Window).
func (n *Network) PredictOne(features [][]float64) float64 {
	if n.rec == nil {
		if len(features) != 1 {
			panic(fmt.Sprintf("nn: dense model expects 1 feature row, got %d", len(features)))
		}
		x := mat.FromRows(features)
		return n.Forward(x, nil).At(0, 0)
	}
	if len(features) != n.window() {
		panic(fmt.Sprintf("nn: recurrent model expects %d feature rows, got %d", n.window(), len(features)))
	}
	seq := make([]*mat.Matrix, len(features))
	for t, row := range features {
		seq[t] = mat.FromRows([][]float64{row})
	}
	return n.Forward(nil, seq).At(0, 0)
}
