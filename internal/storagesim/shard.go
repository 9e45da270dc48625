package storagesim

import "fmt"

// ShardBy partitions the cluster's devices into n groups of device names
// using assign, which maps a device name to its shard index in [0, n). A
// nil assign falls back to the contiguous profile-order partition. Each
// group keeps profile order. Every group must end up with at least one
// device — an empty shard would own an engine with no candidates — and an
// out-of-range assignment is an error.
func (c *Cluster) ShardBy(n int, assign func(device string) int) ([][]string, error) {
	order := c.DeviceNames()
	if n < 1 {
		return nil, fmt.Errorf("storagesim: shard count %d < 1", n)
	}
	if n > len(order) {
		return nil, fmt.Errorf("storagesim: %d shards over %d devices leaves empty shards", n, len(order))
	}
	groups := make([][]string, n)
	if assign == nil {
		// Contiguous profile-order split: sizes differ by at most one.
		base, extra := len(order)/n, len(order)%n
		at := 0
		for i := 0; i < n; i++ {
			size := base
			if i < extra {
				size++
			}
			groups[i] = order[at : at+size : at+size]
			at += size
		}
	} else {
		for _, name := range order {
			i := assign(name)
			if i < 0 || i >= n {
				return nil, fmt.Errorf("storagesim: device %q assigned to shard %d outside [0,%d)", name, i, n)
			}
			groups[i] = append(groups[i], name)
		}
	}
	for i, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("storagesim: shard %d of %d has no devices", i, n)
		}
	}
	return groups, nil
}
