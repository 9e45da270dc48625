package policy

import (
	"context"
	"errors"
	"fmt"
)

// Model is the narrow surface of a learned placement engine the policy
// plane drives: three calls, no optional extensions. core.EngineModel
// implements it over the DRL engine; the indirection keeps this package a
// leaf (core imports policy, not the reverse) and lets tests and decorators
// (a tracer's timing wrapper) substitute or wrap models. Scheduling work
// around these calls belongs to the caller: core.Loop prepares the
// engine's decision beside the policy's Retrain or Update, whatever wraps
// the model.
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
// model's ε-greedy layout is applied as-is. Its mutable state (RNG stream, weights, scalers) lives
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
	if err := p.Model.Retrain(ctx); err != nil {
		return nil, fmt.Errorf("policy: geomancy retrain: %w", err)
	}
	layout, preds, err := p.Model.Propose(ctx, s)
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
