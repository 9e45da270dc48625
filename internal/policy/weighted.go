package policy

import (
	"context"
	"sort"
)

// Weighted wraps a recency/frequency heuristic with capacity-aware group
// sizing. The paper's base cases "evenly spread the files across all
// available storage devices, however it is possible to spread files based
// upon the capacities of the storage devices" (§VI) — this is that
// variant: device i receives a share of files proportional to its free
// capacity, still ordered fastest-to-slowest by the wrapped policy's
// ranking rule.
type Weighted struct {
	Stateless
	// Base must be LRU, MRU or LFU; its Name is extended with
	// " (capacity-weighted)".
	Base Policy
}

// Name implements Policy.
func (w Weighted) Name() string { return w.Base.Name() + " (capacity-weighted)" }

// Propose implements Policy.
func (w Weighted) Propose(ctx context.Context, s State) (map[int64]string, error) {
	if len(s.Devices) == 0 || len(s.Files) == 0 {
		return nil, nil
	}
	// Rank files with the base policy's ordering by observing which
	// groups it forms on an unweighted run, then re-cut the group
	// boundaries by capacity share.
	order := w.fileOrder(s)
	if order == nil {
		return nil, nil
	}
	devices := devicesByThroughputInfo(s.Devices)

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

// fileOrder extracts the base policy's file ranking.
func (w Weighted) fileOrder(s State) []FileInfo {
	files := make([]FileInfo, len(s.Files))
	copy(files, s.Files)
	switch w.Base.(type) {
	case LRU:
		sort.SliceStable(files, func(i, j int) bool { return files[i].LastAccess > files[j].LastAccess })
	case MRU:
		sort.SliceStable(files, func(i, j int) bool { return files[i].LastAccess < files[j].LastAccess })
	case LFU:
		sort.SliceStable(files, func(i, j int) bool { return files[i].Accesses > files[j].Accesses })
	default:
		return nil
	}
	return files
}

// devicesByThroughputInfo orders the device infos fastest first.
func devicesByThroughputInfo(devs []DeviceInfo) []DeviceInfo {
	sorted := make([]DeviceInfo, len(devs))
	copy(sorted, devs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Throughput > sorted[j].Throughput
	})
	return sorted
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
