package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
// model's ε-greedy layout is applied as-is. Its mutable state (RNG
// stream, weights, scalers) lives in the engine, which snapshots itself
// through the engine half of the checkpoint — so the policy blob itself
// is empty.
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

// Tiered is Geomancy restricted to cross-tier migrations (after
// Harmonia's device-class-aware promote/demote, arXiv:2503.20507):
// devices are grouped into performance tiers by hardware class, files
// are split into hot and cold halves by access count, and of the model's
// proposed moves only promotions of hot files and demotions of cold ones
// survive — lateral shuffles inside a tier, cold promotions, and hot
// demotions are suppressed (the file stays put). The gate trades some of
// the model's freedom for migration traffic that always has a tiering
// rationale.
type Tiered struct {
	Stateless
	Model    Model
	explored int //geomancy:ephemeral last-proposal telemetry (LastExplored), overwritten by the next Propose
}

// Name implements Policy.
func (p *Tiered) Name() string { return "tiered-geomancy" }

// Propose implements Policy.
func (p *Tiered) Propose(ctx context.Context, s State) (map[int64]string, error) {
	if err := p.Model.Retrain(ctx); err != nil {
		return nil, fmt.Errorf("policy: tiered retrain: %w", err)
	}
	_, preds, err := p.Model.Propose(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("policy: tiered proposal: %w", err)
	}
	tiers := deviceTiers(s.Devices)
	hot := hotFiles(s.Files)
	layout := make(map[int64]string, len(preds))
	explored := 0
	for _, d := range preds {
		chosen := d.Chosen
		ct, haveCur := tiers[d.Current]
		nt, haveNew := tiers[d.Chosen]
		switch {
		case d.Chosen == d.Current:
			// Staying put is always allowed.
		case !haveCur || !haveNew:
			// A device outside the snapshot (shouldn't happen): trust the
			// model rather than inventing a rule.
		case nt == ct:
			chosen = d.Current // lateral move inside a tier: suppress
		case nt < ct && !hot[d.FileID]:
			chosen = d.Current // promotion is reserved for hot files
		case nt > ct && hot[d.FileID]:
			chosen = d.Current // never demote a hot file
		}
		layout[d.FileID] = chosen
		if d.Random && chosen != d.Current {
			explored++
		}
	}
	p.explored = explored
	return layout, nil
}

// LastExplored implements Explorer.
func (p *Tiered) LastExplored() int { return p.explored }

// deviceTiers maps every device to its performance tier: devices are
// grouped by hardware class (an unclassified device forms its own
// class), classes are ranked by mean observed throughput, and tier 0 is
// the fastest class. Iteration stays in slice order throughout so the
// ranking is deterministic; throughput ties break by class name.
func deviceTiers(devs []DeviceInfo) map[string]int {
	classOf := func(d DeviceInfo) string {
		if d.Class != "" {
			return d.Class
		}
		return "device:" + d.Name
	}
	type group struct {
		key string
		sum float64
		n   int
	}
	var groups []group
	index := make(map[string]int)
	for _, d := range devs {
		key := classOf(d)
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, group{key: key})
		}
		groups[gi].sum += d.Throughput
		groups[gi].n++
	}
	sort.SliceStable(groups, func(i, j int) bool {
		mi := groups[i].sum / float64(groups[i].n)
		mj := groups[j].sum / float64(groups[j].n)
		if mi != mj {
			return mi > mj
		}
		return groups[i].key < groups[j].key
	})
	tierOf := make(map[string]int, len(groups))
	for tier, g := range groups {
		tierOf[g.key] = tier
	}
	tiers := make(map[string]int, len(devs))
	for _, d := range devs {
		tiers[d.Name] = tierOf[classOf(d)]
	}
	return tiers
}

// hotFiles splits the working set at the median access count: files at
// or above it (having been accessed at all) are hot. With no access
// history yet, nothing is hot and only demotions pass the gate.
func hotFiles(files []FileInfo) map[int64]bool {
	if len(files) == 0 {
		return nil
	}
	counts := make([]int64, len(files))
	for i, f := range files {
		counts[i] = f.Accesses
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	median := counts[len(counts)/2]
	hot := make(map[int64]bool, len(files))
	for _, f := range files {
		if f.Accesses > 0 && f.Accesses >= median {
			hot[f.ID] = true
		}
	}
	return hot
}
