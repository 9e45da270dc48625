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
		shards, err := c.ShardBy(n, nil)
		if err != nil {
			t.Fatalf("ShardBy(%d): %v", n, err)
		}
		if len(shards) != n {
			t.Fatalf("ShardBy(%d) returned %d shards", n, len(shards))
		}
		// Disjoint and covering, in profile order.
		var flat []string
		for i, s := range shards {
			if got := s.State().Index; got != i {
				t.Errorf("shard %d reports index %d", i, got)
			}
			names := s.DeviceNames()
			if len(names) == 0 {
				t.Errorf("ShardBy(%d): shard %d is empty", n, i)
			}
			for _, name := range names {
				if s.Device(name) == nil {
					t.Errorf("shard %d Device(%q) = nil", i, name)
				}
			}
			flat = append(flat, names...)
		}
		if !reflect.DeepEqual(flat, all) {
			t.Errorf("ShardBy(%d) partition %v does not cover %v", n, flat, all)
		}
	}

	if _, err := c.ShardBy(0, nil); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := c.ShardBy(len(all)+1, nil); err == nil {
		t.Error("more shards than devices should fail")
	}
}

func TestShardViewFilters(t *testing.T) {
	c := NewBluesky(1)
	shards, err := c.ShardBy(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := shards[0], shards[1]

	// A device owned by the other shard is invisible: nil Device, no
	// summary.
	other := s1.DeviceNames()[0]
	if s0.Device(other) != nil {
		t.Errorf("shard 0 sees shard 1's device %q", other)
	}
	sums := s0.DeviceSummaries()
	if len(sums) != len(s0.DeviceNames()) {
		t.Fatalf("shard 0 has %d summaries for %d devices", len(sums), len(s0.DeviceNames()))
	}
	for i, d := range sums {
		if d.Name != s0.DeviceNames()[i] {
			t.Errorf("summary %d is %q, want %q (profile order)", i, d.Name, s0.DeviceNames()[i])
		}
	}
}

func TestShardByCustomAssign(t *testing.T) {
	c := NewBluesky(1)
	// Route the raid devices to shard 0, everything else to shard 1.
	shards, err := c.ShardBy(2, func(device string) int {
		if strings.HasPrefix(device, "file") || device == "tmp" || device == "var" {
			return 0
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := shards[0].DeviceNames(); !reflect.DeepEqual(got, []string{"file0", "tmp", "var"}) {
		t.Errorf("shard 0 = %v", got)
	}
	if got := shards[1].DeviceNames(); !reflect.DeepEqual(got, []string{"pic", "people", "USBtmp"}) {
		t.Errorf("shard 1 = %v", got)
	}

	// Out-of-range assignment and empty shards are errors.
	if _, err := c.ShardBy(2, func(string) int { return 5 }); err == nil {
		t.Error("out-of-range assign should fail")
	}
	if _, err := c.ShardBy(2, func(string) int { return 0 }); err == nil {
		t.Error("empty shard should fail")
	}
}

// TestShardReserveTwoPhase pins the two-phase accounting contract: a
// reservation gates admission without touching used-bytes, a failed
// reservation leaves the ledger unchanged, and releasing returns the
// shard to a clean slate.
func TestShardReserveTwoPhase(t *testing.T) {
	c := NewBluesky(1)
	shards, err := c.ShardBy(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := shards[0]
	dev := s.DeviceNames()[0]
	d := s.Device(dev)
	free := d.Free()
	usedBefore := d.Used()

	// Claim most of the device, then fail to claim the remainder plus one.
	if err := s.Reserve(dev, free-10); err != nil {
		t.Fatalf("first reservation: %v", err)
	}
	if d.Used() != usedBefore {
		t.Fatalf("Reserve mutated used bytes: %d -> %d", usedBefore, d.Used())
	}
	if err := s.Reserve(dev, 11); err == nil {
		t.Fatal("over-reservation should fail")
	}
	if got := s.Reserved(dev); got != free-10 {
		t.Fatalf("failed reservation changed the ledger: %d", got)
	}
	// The remaining 10 bytes are still claimable.
	if err := s.Reserve(dev, 10); err != nil {
		t.Fatalf("exact-fit reservation: %v", err)
	}

	// Devices outside the shard, unavailable, and read-only devices reject.
	other := shards[1].DeviceNames()[0]
	if err := s.Reserve(other, 1); err == nil {
		t.Error("reserving an unowned device should fail")
	}
	if err := c.SetReadOnly(dev, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(dev, 0); err == nil {
		t.Error("reserving a read-only device should fail")
	}
	if err := c.SetReadOnly(dev, false); err != nil {
		t.Fatal(err)
	}

	s.ReleaseReservations()
	if got := s.Reserved(dev); got != 0 {
		t.Fatalf("ledger not empty after release: %d", got)
	}
	if d.Used() != usedBefore {
		t.Fatalf("reservation cycle leaked into used bytes: %d -> %d", usedBefore, d.Used())
	}
}

func TestShardStateRoundTrip(t *testing.T) {
	c := NewBluesky(1)
	shards, err := c.ShardBy(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := shards[1].State()

	c2 := NewBluesky(1)
	shards2, err := c2.ShardBy(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := shards2[1].RestoreState(st); err != nil {
		t.Fatal(err)
	}

	// Mismatched partition: wrong index, wrong device set.
	if err := shards2[0].RestoreState(st); err == nil {
		t.Error("restoring into the wrong shard index should fail")
	}
	shards4, err := c2.ShardBy(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := shards4[1].RestoreState(st); err == nil {
		t.Error("restoring across a different partition should fail")
	}
}
