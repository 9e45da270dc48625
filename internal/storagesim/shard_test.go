package storagesim

import (
	"reflect"
	"strings"
	"testing"
)

func TestShardsPartition(t *testing.T) {
	c := NewBluesky(1)
	all := c.DeviceNames()

	for _, n := range []int{1, 2, 3, 6} {
		groups, err := c.ShardBy(n, nil)
		if err != nil {
			t.Fatalf("ShardBy(%d): %v", n, err)
		}
		if len(groups) != n {
			t.Fatalf("ShardBy(%d) returned %d groups", n, len(groups))
		}
		// Disjoint and covering, in profile order, sizes within one.
		var flat []string
		for i, g := range groups {
			if len(g) != len(all)/n && len(g) != len(all)/n+1 {
				t.Errorf("ShardBy(%d): group %d has %d devices", n, i, len(g))
			}
			flat = append(flat, g...)
		}
		if !reflect.DeepEqual(flat, all) {
			t.Errorf("ShardBy(%d) partition %v does not cover %v", n, flat, all)
		}
		// A group is its own slice: growing one leaves the next intact.
		if n > 1 {
			_ = append(groups[0], "extra")
			if groups[1][0] != all[len(groups[0])] {
				t.Errorf("ShardBy(%d): appending to group 0 overwrote group 1: %v", n, groups[1])
			}
		}
	}

	if _, err := c.ShardBy(0, nil); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := c.ShardBy(len(all)+1, nil); err == nil {
		t.Error("more shards than devices should fail")
	}
}

// TestShardViewFilters pins what a shard sees through its group: filtering
// the cluster-wide summaries to the group's devices yields exactly the
// group, in profile order, and a device of another group is never in it —
// also when the assignment interleaves groups across profile order.
func TestShardViewFilters(t *testing.T) {
	c := NewBluesky(1)
	order := c.DeviceNames()
	rank := make(map[string]int, len(order))
	for i, name := range order {
		rank[name] = i
	}
	groups, err := c.ShardBy(2, func(device string) int { return rank[device] % 2 })
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[string]int)
	for i, g := range groups {
		for _, name := range g {
			if j, dup := owner[name]; dup {
				t.Fatalf("device %q in groups %d and %d", name, j, i)
			}
			owner[name] = i
			if c.Device(name) == nil {
				t.Errorf("group %d device %q is not in the cluster", i, name)
			}
		}
	}
	for i, g := range groups {
		var seen []string
		for _, d := range c.DeviceSummaries() {
			if owner[d.Name] == i {
				seen = append(seen, d.Name)
			}
		}
		if !reflect.DeepEqual(seen, g) {
			t.Errorf("group %d filters the summaries to %v, want %v (profile order)", i, seen, g)
		}
		for _, name := range g {
			if rank[name]%2 != i {
				t.Errorf("group %d holds %q, assigned to group %d", i, name, rank[name]%2)
			}
		}
	}
}

func TestShardByCustomAssign(t *testing.T) {
	c := NewBluesky(1)
	// Route the raid devices to shard 0, everything else to shard 1.
	groups, err := c.ShardBy(2, func(device string) int {
		if strings.HasPrefix(device, "file") || device == "tmp" || device == "var" {
			return 0
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"file0", "tmp", "var"}, {"pic", "people", "USBtmp"}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}

	// Out-of-range assignment and empty shards are errors.
	if _, err := c.ShardBy(2, func(string) int { return 5 }); err == nil {
		t.Error("out-of-range assign should fail")
	}
	if _, err := c.ShardBy(2, func(string) int { return 0 }); err == nil {
		t.Error("empty shard should fail")
	}
}
