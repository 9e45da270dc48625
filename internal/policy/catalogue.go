package policy

import (
	"fmt"
	"strings"

	"geomancy/internal/rng"
)

// Info describes one catalogued policy: the key WithPolicy / -policy
// accept, and a one-line description for listings.
type Info struct {
	Name        string
	Description string
}

// DefaultName is the policy the empty name selects.
const DefaultName = "geomancy"

// catalogue is the one table from policy name to constructor, baselines
// first and the learned Geomancy family last; adding a policy is adding a
// row. learned marks policies that drive a Model (and so need an engine
// behind them). Baselines ignore the model; stochastic ones derive their
// checkpointable stream from seed at a fixed per-policy offset, so every
// driver of one seed — facade, experiment matrix — draws identically.
var catalogue = []struct {
	Info
	learned bool
	build   func(m Model, seed int64) Policy
}{
	{Info{"lru", "most recently used files on the fastest devices (§VI)"}, false,
		func(Model, int64) Policy { return LRU() }},
	{Info{"mru", "most recently used files on the slowest devices (Chou & DeWitt)"}, false,
		func(Model, int64) Policy { return MRU() }},
	{Info{"lfu", "most frequently used files on the fastest devices (Gupta et al.)"}, false,
		func(Model, int64) Policy { return LFU() }},
	{Info{"lfu-weighted", "LFU with capacity-proportional group sizing"}, false,
		func(Model, int64) Policy { return Weighted{Base: LFU()} }},
	{Info{"random-dynamic", "uniformly random placement, reshuffled every decision"}, false,
		func(_ Model, seed int64) Policy { return &RandomDynamic{Rng: rng.New(seed + 2)} }},
	{Info{"random-static", "one uniformly random placement, then frozen"}, false,
		func(_ Model, seed int64) Policy { return &RandomStatic{Rng: rng.New(seed + 3)} }},
	{Info{"noop", "never moves anything (spread-evenly control)"}, false,
		func(Model, int64) Policy { return NoOp{} }},
	{Info{"geomancy", "the paper's closed loop: retrain + ε-greedy proposal each decision"}, true,
		func(m Model, _ int64) Policy { return &Geomancy{Model: m} }},
	{Info{"online-geomancy", "geomancy with incremental minibatch updates between full retrains"}, true,
		func(m Model, _ int64) Policy { return &Online{Model: m} }},
}

// Catalogue lists every selectable policy in catalogue order.
func Catalogue() []Info {
	infos := make([]Info, len(catalogue))
	for i, e := range catalogue {
		infos[i] = e.Info
	}
	return infos
}

// Names returns the catalogue keys in catalogue order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.Name
	}
	return names
}

// New builds the named policy; the empty name selects DefaultName and an
// unknown one fails with ErrUnknown. A learned policy drives the Model
// that model returns; baselines never call it and derive any stochastic
// stream from seed.
func New(name string, seed int64, model func() (Model, error)) (Policy, error) {
	if name == "" {
		name = DefaultName
	}
	for _, e := range catalogue {
		if e.Name != name {
			continue
		}
		var m Model
		if e.learned {
			var err error
			if m, err = model(); err != nil {
				return nil, err
			}
		}
		return e.build(m, seed), nil
	}
	return nil, fmt.Errorf("%w: %q (catalogue: %s)", ErrUnknown, name, strings.Join(Names(), ", "))
}
