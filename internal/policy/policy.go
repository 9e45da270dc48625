// Package policy is the placement-policy plane: one first-class Policy
// contract implemented by the paper's base cases (§VI) — LRU, MRU (Chou
// & DeWitt), LFU (Gupta et al.), random static, random dynamic, a fixed
// static layout, and all-on-one-mount placement — and by the learned
// Geomancy family (Geomancy, Online) adapting the DRL engine
// through the Model bridge. Dynamic policies re-rank devices from the
// latest telemetry snapshot on every invocation, exactly as the paper's
// base cases "access the updated performance values from the ReplayDB".
//
// Policies are stateful citizens of the checkpoint plane: MarshalState
// captures everything a policy needs to keep deciding identically after
// a restore (one-shot flags, RNG stream positions, online cadence
// counters), and UnmarshalState rewinds a freshly built policy to that
// point.
package policy

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"geomancy/internal/rng"
)

// Sentinel errors. Match with errors.Is.
var (
	// ErrUnknown reports a policy name absent from the catalogue.
	ErrUnknown = errors.New("policy: unknown policy")
	// ErrNotReady reports a learned policy asked for an incremental
	// update before its model completed a full training cycle; callers
	// (and Online itself) fall back to a full retrain.
	ErrNotReady = errors.New("policy: model not trained yet")
	// ErrBadState reports an UnmarshalState blob that does not decode as
	// the policy's serialized state.
	ErrBadState = errors.New("policy: undecodable state blob")
)

// DeviceInfo is a policy's view of one storage device.
type DeviceInfo struct {
	Name string
	// Throughput is the current total average throughput observed at the
	// device (bytes/second), from ReplayDB telemetry.
	Throughput float64
	// Free is the remaining capacity in bytes.
	Free int64
}

// FileInfo is a policy's view of one workload file.
type FileInfo struct {
	ID   int64
	Path string
	Size int64
	// Device is the file's current location.
	Device string
	// LastAccess is the most recent access time (virtual seconds).
	LastAccess float64
	// Accesses counts observed accesses of the file.
	Accesses int64
}

// State is the system snapshot a policy decides from.
type State struct {
	Devices []DeviceInfo
	Files   []FileInfo
}

// Policy computes desired data layouts from system snapshots. It is the
// one placement contract of the repository: the experiment baselines,
// the facade's WithPolicy catalogue, and the learned Geomancy family all
// implement it, and core.Loop drives whichever implementation it is
// given.
type Policy interface {
	// Name identifies the policy in experiment output and checkpoints.
	Name() string
	// Propose returns the desired file→device assignment for the given
	// snapshot. A nil map with a nil error means "no change" (static
	// policies return their layout once and nil afterward). Errors wrap
	// the package sentinels where applicable; match with errors.Is.
	Propose(ctx context.Context, s State) (map[int64]string, error)
	// MarshalState captures the policy's mutable decision state for a
	// checkpoint; stateless policies return (nil, nil).
	MarshalState() ([]byte, error)
	// UnmarshalState rewinds the policy to a previously captured state.
	UnmarshalState(data []byte) error
}

// Stateless provides the no-op serialization half of Policy for
// policies whose decisions depend only on the snapshot. Embed it.
type Stateless struct{}

// MarshalState implements Policy: no mutable state.
func (Stateless) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements Policy: nothing to restore.
func (Stateless) UnmarshalState([]byte) error { return nil }

// marshalGob encodes one policy-state struct.
func marshalGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("policy: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// unmarshalGob decodes one policy-state struct, wrapping decode
// failures in ErrBadState.
func unmarshalGob(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	return nil
}

// devicesByThroughput returns the devices ordered fastest first.
func devicesByThroughput(devs []DeviceInfo) []DeviceInfo {
	sorted := make([]DeviceInfo, len(devs))
	copy(sorted, devs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Throughput > sorted[j].Throughput
	})
	return sorted
}

// assignGrouped implements the paper's shared heuristic skeleton: order
// the files by some key, divide them evenly into as many groups as there
// are devices, and place group i on the i-th fastest device. Files that
// do not divide evenly land on the slowest device, as §VI specifies.
func assignGrouped(files []FileInfo, devices []DeviceInfo) map[int64]string {
	if len(devices) == 0 || len(files) == 0 {
		return nil
	}
	perGroup := len(files) / len(devices)
	layout := make(map[int64]string, len(files))
	if perGroup == 0 {
		// Fewer files than devices: fastest devices get one file each,
		// there is no remainder group.
		for i, f := range files {
			layout[f.ID] = devices[i].Name
		}
		return layout
	}
	for i, f := range files {
		g := i / perGroup
		if g >= len(devices) {
			g = len(devices) - 1 // remainder → slowest device
		}
		layout[f.ID] = devices[g].Name
	}
	return layout
}

// Ranked is the §VI recency/frequency heuristic family: rank the files,
// then spread the ranking over the devices fastest first (assignGrouped).
// LRU, MRU and LFU are its three members.
type Ranked struct {
	Stateless
	name  string
	ahead func(a, b FileInfo) bool // a ranks ahead of b: a goes to the faster device
}

// LRU places the most recently used files on the fastest devices and the
// least recently used on the slowest (§VI).
func LRU() Ranked {
	return Ranked{name: "LRU", ahead: func(a, b FileInfo) bool { return a.LastAccess > b.LastAccess }}
}

// MRU places the most recently used files on the slowest devices, which
// benefits looping sequential scans (Chou & DeWitt; §VI).
func MRU() Ranked {
	return Ranked{name: "MRU", ahead: func(a, b FileInfo) bool { return a.LastAccess < b.LastAccess }}
}

// LFU places heavily accessed files on fast devices and rarely accessed
// files on slow ones (Gupta et al.; §VI).
func LFU() Ranked {
	return Ranked{name: "LFU", ahead: func(a, b FileInfo) bool { return a.Accesses > b.Accesses }}
}

// Name implements Policy.
func (r Ranked) Name() string { return r.name }

// rank returns a copy of files in the policy's order, ties keeping their
// snapshot order.
func (r Ranked) rank(files []FileInfo) []FileInfo {
	ranked := make([]FileInfo, len(files))
	copy(ranked, files)
	sort.SliceStable(ranked, func(i, j int) bool { return r.ahead(ranked[i], ranked[j]) })
	return ranked
}

// Propose implements Policy.
func (r Ranked) Propose(_ context.Context, s State) (map[int64]string, error) {
	return assignGrouped(r.rank(s.Files), devicesByThroughput(s.Devices)), nil
}

// randomState is the gob wire form of the stochastic baselines' mutable
// state: the stream position, so a restored policy replays the exact
// draws the interrupted one would have made, and (RandomStatic only) the
// one-shot flag whose loss would make a restored run re-fire the shuffle.
type randomState struct {
	RNG  uint64
	Done bool
}

func marshalStream(r *rng.RNG, done bool) ([]byte, error) {
	return marshalGob(randomState{RNG: r.State(), Done: done})
}

// unmarshalStream rewinds *r (creating it if nil) and returns the flag.
func unmarshalStream(data []byte, r **rng.RNG) (done bool, err error) {
	var st randomState
	if err := unmarshalGob(data, &st); err != nil {
		return false, err
	}
	if *r == nil {
		*r = rng.FromState(st.RNG)
	} else {
		(*r).SetState(st.RNG)
	}
	return st.Done, nil
}

// RandomStatic shuffles every file to a uniformly random device once and
// never moves them again (§VI "random static").
type RandomStatic struct {
	// Rng drives the shuffle. Use rng.New: the stream position is part
	// of MarshalState.
	Rng  *rng.RNG
	done bool
}

// Name implements Policy.
func (p *RandomStatic) Name() string { return "random static" }

// Propose implements Policy.
func (p *RandomStatic) Propose(_ context.Context, s State) (map[int64]string, error) {
	if p.done || len(s.Devices) == 0 {
		return nil, nil
	}
	p.done = true
	return randomLayout(p.Rng, s), nil
}

// MarshalState implements Policy.
func (p *RandomStatic) MarshalState() ([]byte, error) { return marshalStream(p.Rng, p.done) }

// UnmarshalState implements Policy.
func (p *RandomStatic) UnmarshalState(data []byte) error {
	done, err := unmarshalStream(data, &p.Rng)
	if err == nil {
		p.done = done
	}
	return err
}

// RandomDynamic reshuffles file locations on every invocation (§VI
// "random dynamic").
type RandomDynamic struct {
	// Rng drives the shuffles; use rng.New so the stream position
	// serializes with MarshalState.
	Rng *rng.RNG
}

// Name implements Policy.
func (p *RandomDynamic) Name() string { return "random dynamic" }

// Propose implements Policy.
func (p *RandomDynamic) Propose(_ context.Context, s State) (map[int64]string, error) {
	if len(s.Devices) == 0 {
		return nil, nil
	}
	return randomLayout(p.Rng, s), nil
}

// MarshalState implements Policy.
func (p *RandomDynamic) MarshalState() ([]byte, error) { return marshalStream(p.Rng, false) }

// UnmarshalState implements Policy.
func (p *RandomDynamic) UnmarshalState(data []byte) error {
	_, err := unmarshalStream(data, &p.Rng)
	return err
}

func randomLayout(r *rng.RNG, s State) map[int64]string {
	layout := make(map[int64]string, len(s.Files))
	for _, f := range s.Files {
		layout[f.ID] = s.Devices[r.Intn(len(s.Devices))].Name
	}
	return layout
}

// oneShot is the fired-already flag of the fixed-layout policies and the
// serialization half of Policy for them: only the flag is mutable. Embed
// it.
type oneShot struct{ done bool }

// oneShotState is oneShot's gob wire form.
type oneShotState struct {
	Done bool
}

// fire reports whether this is the first call.
func (o *oneShot) fire() bool {
	first := !o.done
	o.done = true
	return first
}

// MarshalState implements Policy.
func (o *oneShot) MarshalState() ([]byte, error) { return marshalGob(oneShotState{Done: o.done}) }

// UnmarshalState implements Policy.
func (o *oneShot) UnmarshalState(data []byte) error {
	var st oneShotState
	if err := unmarshalGob(data, &st); err != nil {
		return err
	}
	o.done = st.Done
	return nil
}

// Static applies one fixed layout once — the paper's "Geomancy static"
// and manual-tuning base cases both use it, differing only in where the
// layout came from.
type Static struct {
	// Desc names the layout's origin, e.g. "Geomancy static". It and
	// Target are construction config, re-supplied when the policy is
	// rebuilt; only the embedded flag is checkpointed.
	Desc   string
	Target map[int64]string
	oneShot
}

// Name implements Policy.
func (p *Static) Name() string {
	if p.Desc != "" {
		return p.Desc
	}
	return "static"
}

// Propose implements Policy.
func (p *Static) Propose(context.Context, State) (map[int64]string, error) {
	if !p.fire() {
		return nil, nil
	}
	return p.Target, nil
}

// SingleMount places every file on one device — experiment 2's
// all-data-on-one-storage-point base case.
type SingleMount struct {
	Device string // construction config, re-supplied when the policy is rebuilt
	oneShot
}

// Name implements Policy.
func (p *SingleMount) Name() string { return fmt.Sprintf("all-on-%s", p.Device) }

// Propose implements Policy.
func (p *SingleMount) Propose(_ context.Context, s State) (map[int64]string, error) {
	if !p.fire() {
		return nil, nil
	}
	layout := make(map[int64]string, len(s.Files))
	for _, f := range s.Files {
		layout[f.ID] = p.Device
	}
	return layout, nil
}

// NoOp never moves anything; the "leave the spread layout alone" control.
type NoOp struct{ Stateless }

// Name implements Policy.
func (NoOp) Name() string { return "no-op" }

// Propose implements Policy.
func (NoOp) Propose(context.Context, State) (map[int64]string, error) { return nil, nil }
