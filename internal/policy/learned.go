package policy

import (
	"context"
	"errors"
	"fmt"
)

// Model is the narrow surface of a learned placement engine the policy
// plane drives. core.EngineModel implements it over the DRL engine; the
// indirection keeps this package a leaf (core imports policy, not the
// reverse) and lets tests substitute canned models.
type Model interface {
	// Retrain runs one full training cycle on the freshest telemetry
	// window (the paper's periodic retrain).
	Retrain(ctx context.Context) error
	// Update applies one incremental minibatch update from the newest
	// telemetry only, reusing the normalization fitted by the last full
	// cycle. A model with no completed full cycle returns an error
	// wrapping ErrNotReady.
	Update(ctx context.Context) error
	// Propose scores every (file, device) candidate and returns the
	// chosen layout plus the per-file prediction record.
	Propose(ctx context.Context, s State) (map[int64]string, []Prediction, error)
}

// Preparer is an optional extension of Model, for a model whose proposal
// has a half that reads no model state: Prepare starts the proposal over
// s, free to run that half beside the Retrain that Geomancy calls next,
// and returns it to finish or abandon once the retrain returns. The
// prepared proposal must equal what Retrain then Propose(s) gives, and an
// abandoned one must leave the model as a failed Retrain alone does.
type Preparer interface {
	Prepare(s State) Prepared
}

// Prepared is a proposal Preparer.Prepare started. Exactly one of its
// methods is called, once.
type Prepared interface {
	// Propose finishes the proposal under the model the retrain left, as
	// Model.Propose does.
	Propose(ctx context.Context) (map[int64]string, []Prediction, error)
	// Abandon waits for the prepared half and discards it: the policy's
	// answer to a failed retrain.
	Abandon()
}

// prepare starts the proposal over s through m's Preparer; a model
// without one proposes whole, after the retrain.
func prepare(m Model, s State) Prepared {
	if pm, ok := m.(Preparer); ok {
		return pm.Prepare(s)
	}
	return serialProposal{m, s}
}

// serialProposal is the Prepared of a model without a Preparer.
type serialProposal struct {
	m Model
	s State
}

func (p serialProposal) Propose(ctx context.Context) (map[int64]string, []Prediction, error) {
	return p.m.Propose(ctx, p.s)
}

func (serialProposal) Abandon() {}

// Prediction records one file's placement decision by a learned model.
type Prediction struct {
	FileID int64
	// Current and Chosen are the file's device before and after the
	// decision (equal when the model keeps the file in place).
	Current string
	Chosen  string
	// Random marks ε-greedy exploration decisions.
	Random bool
	// Predicted is the model's prediction for the file at Chosen (bytes/s
	// under the throughput target); 0 when the model did not score that
	// pairing this decision.
	Predicted float64
}

// Explorer is implemented by policies that track how many of their last
// proposal's moves were exploration; the loop reports the count on
// MovementEvent.Random. Policies without the method count as zero.
type Explorer interface {
	LastExplored() int
}

// countExplored tallies exploration decisions that actually moved data.
func countExplored(preds []Prediction) int {
	n := 0
	for _, d := range preds {
		if d.Random && d.Chosen != d.Current {
			n++
		}
	}
	return n
}

// Geomancy is the paper's closed loop as a Policy: every proposal is
// preceded by a full retrain on the freshest telemetry window, then the
// model's ε-greedy layout is applied as-is. A model that is a Preparer
// prepares the proposal before the retrain, so its model-free half may run
// beside the fit. Its mutable state (RNG stream, weights, scalers) lives
// in the engine, which snapshots itself through the engine half of the
// checkpoint — so the policy blob itself is empty.
type Geomancy struct {
	Stateless
	Model    Model
	explored int //geomancy:ephemeral last-proposal telemetry (LastExplored), overwritten by the next Propose
}

// Name implements Policy.
func (p *Geomancy) Name() string { return "Geomancy dynamic" }

// Propose implements Policy.
func (p *Geomancy) Propose(ctx context.Context, s State) (map[int64]string, error) {
	prep := prepare(p.Model, s)
	if err := p.Model.Retrain(ctx); err != nil {
		prep.Abandon()
		return nil, fmt.Errorf("policy: geomancy retrain: %w", err)
	}
	layout, preds, err := prep.Propose(ctx)
	if err != nil {
		return nil, fmt.Errorf("policy: geomancy proposal: %w", err)
	}
	p.explored = countExplored(preds)
	return layout, nil
}

// LastExplored implements Explorer.
func (p *Geomancy) LastExplored() int { return p.explored }

// retrainEvery is Online's full-retrain cadence: proposal 0 and every
// retrainEvery-th after it retrain fully, the rest update incrementally.
const retrainEvery = 4

// Online is Geomancy with incremental learning between full retrains
// (after Sibyl's continuously adapting placement, arXiv:2205.07394):
// most proposals are preceded by a cheap minibatch update on only the
// newest telemetry, so the model starts tracking a hotspot shift on the
// very next decision instead of waiting for the retrain window to turn
// over — a full window is dominated by pre-shift telemetry for many runs
// after the shift, which is exactly when the periodic retrainer keeps
// reproducing the stale placement.
type Online struct {
	Model Model //geomancy:ephemeral serializes through the engine half of the checkpoint

	calls    int64
	explored int //geomancy:ephemeral last-proposal telemetry (LastExplored), overwritten by the next Propose
}

// Name implements Policy.
func (p *Online) Name() string { return "online-geomancy" }

// Propose implements Policy.
func (p *Online) Propose(ctx context.Context, s State) (map[int64]string, error) {
	full := p.calls%retrainEvery == 0
	p.calls++
	if full {
		if err := p.Model.Retrain(ctx); err != nil {
			return nil, fmt.Errorf("policy: online retrain: %w", err)
		}
	} else if err := p.Model.Update(ctx); err != nil {
		if !errors.Is(err, ErrNotReady) {
			return nil, fmt.Errorf("policy: online update: %w", err)
		}
		// No full cycle behind us (e.g. restored from an old snapshot):
		// fall back to a retrain rather than proposing untrained.
		if err := p.Model.Retrain(ctx); err != nil {
			return nil, fmt.Errorf("policy: online retrain: %w", err)
		}
	}
	layout, preds, err := p.Model.Propose(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("policy: online proposal: %w", err)
	}
	p.explored = countExplored(preds)
	return layout, nil
}

// LastExplored implements Explorer.
func (p *Online) LastExplored() int { return p.explored }

// onlineState is the gob wire form of Online's mutable state: the
// proposal counter that phases full retrains against updates. The model
// itself serializes through the engine half of the checkpoint.
type onlineState struct {
	Calls int64
}

// MarshalState implements Policy.
func (p *Online) MarshalState() ([]byte, error) {
	return marshalGob(onlineState{Calls: p.calls})
}

// UnmarshalState implements Policy.
func (p *Online) UnmarshalState(data []byte) error {
	var st onlineState
	if err := unmarshalGob(data, &st); err != nil {
		return err
	}
	p.calls = st.Calls
	return nil
}
