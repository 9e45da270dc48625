// Package policy is the placement-policy plane: one first-class Policy
// contract implemented by the paper's base cases (§VI) — LRU, MRU (Chou
// & DeWitt), LFU (Gupta et al.), random static, random dynamic, a fixed
// static layout, and all-on-one-mount placement — and by the learned
// Geomancy family (Geomancy, Online, Tiered) adapting the DRL engine
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
	// Class names the device's hardware class ("raid5", "nfs", "usb",
	// ...). Tier-aware policies group devices by class; empty means
	// unclassified, and each unclassified device forms its own class.
	Class string
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

// devicesByThroughput returns device names ordered fastest first.
func devicesByThroughput(devs []DeviceInfo) []string {
	sorted := make([]DeviceInfo, len(devs))
	copy(sorted, devs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Throughput > sorted[j].Throughput
	})
	names := make([]string, len(sorted))
	for i, d := range sorted {
		names[i] = d.Name
	}
	return names
}

// assignGrouped implements the paper's shared heuristic skeleton: order
// the files by some key, divide them evenly into as many groups as there
// are devices, and place group i on the i-th fastest device. Files that
// do not divide evenly land on the slowest device, as §VI specifies.
func assignGrouped(files []FileInfo, devices []string) map[int64]string {
	if len(devices) == 0 || len(files) == 0 {
		return nil
	}
	perGroup := len(files) / len(devices)
	layout := make(map[int64]string, len(files))
	if perGroup == 0 {
		// Fewer files than devices: fastest devices get one file each,
		// there is no remainder group.
		for i, f := range files {
			layout[f.ID] = devices[i]
		}
		return layout
	}
	for i, f := range files {
		g := i / perGroup
		if g >= len(devices) {
			g = len(devices) - 1 // remainder → slowest device
		}
		layout[f.ID] = devices[g]
	}
	return layout
}

// LRU places the most recently used files on the fastest devices and the
// least recently used on the slowest (§VI).
type LRU struct{ Stateless }

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// Propose implements Policy.
func (LRU) Propose(_ context.Context, s State) (map[int64]string, error) {
	files := make([]FileInfo, len(s.Files))
	copy(files, s.Files)
	sort.SliceStable(files, func(i, j int) bool {
		return files[i].LastAccess > files[j].LastAccess // most recent first
	})
	return assignGrouped(files, devicesByThroughput(s.Devices)), nil
}

// MRU places the most recently used files on the slowest devices, which
// benefits looping sequential scans (Chou & DeWitt; §VI).
type MRU struct{ Stateless }

// Name implements Policy.
func (MRU) Name() string { return "MRU" }

// Propose implements Policy.
func (MRU) Propose(_ context.Context, s State) (map[int64]string, error) {
	files := make([]FileInfo, len(s.Files))
	copy(files, s.Files)
	sort.SliceStable(files, func(i, j int) bool {
		return files[i].LastAccess < files[j].LastAccess // least recent first
	})
	return assignGrouped(files, devicesByThroughput(s.Devices)), nil
}

// LFU places heavily accessed files on fast devices and rarely accessed
// files on slow ones (Gupta et al.; §VI).
type LFU struct{ Stateless }

// Name implements Policy.
func (LFU) Name() string { return "LFU" }

// Propose implements Policy.
func (LFU) Propose(_ context.Context, s State) (map[int64]string, error) {
	files := make([]FileInfo, len(s.Files))
	copy(files, s.Files)
	sort.SliceStable(files, func(i, j int) bool {
		return files[i].Accesses > files[j].Accesses // most accessed first
	})
	return assignGrouped(files, devicesByThroughput(s.Devices)), nil
}

// RandomStatic shuffles every file to a uniformly random device once and
// never moves them again (§VI "random static").
type RandomStatic struct {
	// Rng drives the shuffle. Use rng.New: the stream position is part
	// of MarshalState, so a restored policy replays the exact draws the
	// interrupted one would have made.
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

// randomStaticState is the gob wire form of RandomStatic's mutable
// state: the stream position and the one-shot flag whose loss would make
// a restored run re-fire the shuffle.
type randomStaticState struct {
	RNG  uint64
	Done bool
}

// MarshalState implements Policy.
func (p *RandomStatic) MarshalState() ([]byte, error) {
	return marshalGob(randomStaticState{RNG: p.Rng.State(), Done: p.done})
}

// UnmarshalState implements Policy.
func (p *RandomStatic) UnmarshalState(data []byte) error {
	var st randomStaticState
	if err := unmarshalGob(data, &st); err != nil {
		return err
	}
	if p.Rng == nil {
		p.Rng = rng.FromState(st.RNG)
	} else {
		p.Rng.SetState(st.RNG)
	}
	p.done = st.Done
	return nil
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

// randomDynamicState is the gob wire form of RandomDynamic's mutable
// state: just the stream position.
type randomDynamicState struct {
	RNG uint64
}

// MarshalState implements Policy.
func (p *RandomDynamic) MarshalState() ([]byte, error) {
	return marshalGob(randomDynamicState{RNG: p.Rng.State()})
}

// UnmarshalState implements Policy.
func (p *RandomDynamic) UnmarshalState(data []byte) error {
	var st randomDynamicState
	if err := unmarshalGob(data, &st); err != nil {
		return err
	}
	if p.Rng == nil {
		p.Rng = rng.FromState(st.RNG)
	} else {
		p.Rng.SetState(st.RNG)
	}
	return nil
}

func randomLayout(r *rng.RNG, s State) map[int64]string {
	layout := make(map[int64]string, len(s.Files))
	for _, f := range s.Files {
		layout[f.ID] = s.Devices[r.Intn(len(s.Devices))].Name
	}
	return layout
}

// oneShotState is the gob wire form shared by the fixed-layout policies:
// only the fired-already flag is mutable.
type oneShotState struct {
	Done bool
}

// Static applies one fixed layout once — the paper's "Geomancy static"
// and manual-tuning base cases both use it, differing only in where the
// layout came from.
type Static struct {
	// Desc names the layout's origin, e.g. "Geomancy static".
	//geomancy:ephemeral construction config, re-supplied when the policy is rebuilt
	Desc   string
	Target map[int64]string //geomancy:ephemeral construction config, re-supplied when the policy is rebuilt
	done   bool
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
	if p.done {
		return nil, nil
	}
	p.done = true
	return p.Target, nil
}

// MarshalState implements Policy.
func (p *Static) MarshalState() ([]byte, error) {
	return marshalGob(oneShotState{Done: p.done})
}

// UnmarshalState implements Policy.
func (p *Static) UnmarshalState(data []byte) error {
	var st oneShotState
	if err := unmarshalGob(data, &st); err != nil {
		return err
	}
	p.done = st.Done
	return nil
}

// SingleMount places every file on one device — experiment 2's
// all-data-on-one-storage-point base case.
type SingleMount struct {
	Device string //geomancy:ephemeral construction config, re-supplied when the policy is rebuilt
	done   bool
}

// Name implements Policy.
func (p *SingleMount) Name() string { return fmt.Sprintf("all-on-%s", p.Device) }

// Propose implements Policy.
func (p *SingleMount) Propose(_ context.Context, s State) (map[int64]string, error) {
	if p.done {
		return nil, nil
	}
	p.done = true
	layout := make(map[int64]string, len(s.Files))
	for _, f := range s.Files {
		layout[f.ID] = p.Device
	}
	return layout, nil
}

// MarshalState implements Policy.
func (p *SingleMount) MarshalState() ([]byte, error) {
	return marshalGob(oneShotState{Done: p.done})
}

// UnmarshalState implements Policy.
func (p *SingleMount) UnmarshalState(data []byte) error {
	var st oneShotState
	if err := unmarshalGob(data, &st); err != nil {
		return err
	}
	p.done = st.Done
	return nil
}

// NoOp never moves anything; the "leave the spread layout alone" control.
type NoOp struct{ Stateless }

// Name implements Policy.
func (NoOp) Name() string { return "no-op" }

// Propose implements Policy.
func (NoOp) Propose(context.Context, State) (map[int64]string, error) { return nil, nil }
