package policy

import "context"

// Weighted wraps a recency/frequency heuristic with capacity-aware group
// sizing. The paper's base cases "evenly spread the files across all
// available storage devices, however it is possible to spread files based
// upon the capacities of the storage devices" (§VI) — this is that
// variant: device i receives a share of files proportional to its free
// capacity, still ordered fastest-to-slowest by the wrapped policy's
// ranking rule.
type Weighted struct {
	Stateless
	// Base must be a Ranked policy (LRU, MRU or LFU); its Name is
	// extended with " (capacity-weighted)".
	Base Policy
}

// Name implements Policy.
func (w Weighted) Name() string { return w.Base.Name() + " (capacity-weighted)" }

// Propose implements Policy.
func (w Weighted) Propose(ctx context.Context, s State) (map[int64]string, error) {
	if len(s.Devices) == 0 || len(s.Files) == 0 {
		return nil, nil
	}
	// Rank files with the base policy's ordering, then cut the group
	// boundaries by capacity share instead of evenly.
	base, ok := w.Base.(Ranked)
	if !ok {
		return nil, nil
	}
	order := base.rank(s.Files)
	devices := devicesByThroughput(s.Devices)

	var totalFree int64
	for _, d := range devices {
		if d.Free > 0 {
			totalFree += d.Free
		}
	}
	if totalFree == 0 {
		// No capacity signal: fall back to even groups.
		return w.Base.Propose(ctx, s)
	}

	layout := make(map[int64]string, len(order))
	n := len(order)
	assigned := 0
	for i, d := range devices {
		share := int(float64(n) * float64(max64(d.Free, 0)) / float64(totalFree))
		if i == len(devices)-1 {
			share = n - assigned // remainder → slowest device (paper rule)
		}
		for j := 0; j < share && assigned < n; j++ {
			layout[order[assigned].ID] = d.Name
			assigned++
		}
	}
	// Any stragglers (rounding) land on the slowest device.
	for assigned < n {
		layout[order[assigned].ID] = devices[len(devices)-1].Name
		assigned++
	}
	return layout, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
