package storagesim

import (
	"math/rand"
	"strings"
	"testing"
)

// tinyCluster builds a two-device cluster with exact byte capacities so
// capacity-edge cases are easy to hit deterministically.
func tinyCluster(t *testing.T, capA, capB int64) *Cluster {
	t.Helper()
	c, err := NewCluster([]DeviceProfile{
		{Name: "a", Class: "ssd", ReadBW: 1e9, WriteBW: 1e9, Capacity: capA},
		{Name: "b", Class: "hdd", ReadBW: 1e8, WriteBW: 1e8, Capacity: capB},
	}, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPlaceFileFailedReplaceKeepsAccounting is the regression test for the
// used-bytes corruption: re-placing an existing file onto a full device
// must fail without touching the old device's accounting. On the pre-fix
// code the old device's used bytes were decremented before the capacity
// check, so the failed call left the file resident but uncounted.
func TestPlaceFileFailedReplaceKeepsAccounting(t *testing.T) {
	c := tinyCluster(t, 1000, 100)
	if err := c.PlaceFile(1, "/f1", 600, "a"); err != nil {
		t.Fatal(err)
	}
	// Destination b (capacity 100) cannot hold the 600-byte file.
	if err := c.PlaceFile(1, "/f1", 600, "b"); err == nil {
		t.Fatal("re-place onto full device succeeded")
	}
	f, err := c.File(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Device != "a" {
		t.Fatalf("file moved to %q by a failed re-place", f.Device)
	}
	if used := c.Device("a").Used(); used != 600 {
		t.Fatalf("device a used = %d after failed re-place, want 600", used)
	}
	if used := c.Device("b").Used(); used != 0 {
		t.Fatalf("device b used = %d after failed re-place, want 0", used)
	}
	// The accounting must survive repeated failures: the pre-fix bug
	// compounded, eventually driving used negative.
	for i := 0; i < 5; i++ {
		if err := c.PlaceFile(1, "/f1", 600, "b"); err == nil {
			t.Fatal("re-place onto full device succeeded")
		}
	}
	if used := c.Device("a").Used(); used != 600 {
		t.Fatalf("device a used = %d after repeated failures, want 600", used)
	}
}

// TestPlaceFileSameDeviceResize checks the effective-free accounting: a
// re-place onto the file's current device frees the old copy first, so
// growing a file in place succeeds whenever the delta fits.
func TestPlaceFileSameDeviceResize(t *testing.T) {
	c := tinyCluster(t, 1000, 100)
	if err := c.PlaceFile(1, "/f1", 900, "a"); err != nil {
		t.Fatal(err)
	}
	// 950 > 1000-900 free, but the old 900-byte copy is replaced.
	if err := c.PlaceFile(1, "/f1", 950, "a"); err != nil {
		t.Fatalf("in-place grow within capacity failed: %v", err)
	}
	if used := c.Device("a").Used(); used != 950 {
		t.Fatalf("device a used = %d, want 950", used)
	}
	// Growing past capacity still fails, and cleanly.
	if err := c.PlaceFile(1, "/f1", 1001, "a"); err == nil {
		t.Fatal("grow past capacity succeeded")
	}
	if used := c.Device("a").Used(); used != 950 {
		t.Fatalf("device a used = %d after failed grow, want 950", used)
	}
}

func TestAccessRejectsWriteToReadOnly(t *testing.T) {
	c := tinyCluster(t, 1000, 1000)
	if err := c.PlaceFile(1, "/f1", 100, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadOnly("a", true); err != nil {
		t.Fatal(err)
	}
	before := c.DeviceStats()[0]

	if _, err := c.Access(1, 0, 50); err == nil {
		t.Fatal("write to read-only device succeeded")
	} else if !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := c.Access(1, 10, 50); err == nil {
		t.Fatal("mixed read+write to read-only device succeeded")
	}
	after := c.DeviceStats()[0]
	if after.Accesses != before.Accesses || after.BytesServed != before.BytesServed || after.BusySeconds != before.BusySeconds {
		t.Fatalf("rejected write mutated accounting: before %+v after %+v", before, after)
	}

	// Pure reads still work on a read-only device.
	if _, err := c.Access(1, 10, 0); err != nil {
		t.Fatalf("read from read-only device failed: %v", err)
	}
}

func TestDeviceSummaries(t *testing.T) {
	c := tinyCluster(t, 1000, 1000)
	sums := c.DeviceSummaries()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if sums[0].Name != "a" || sums[1].Name != "b" {
		t.Fatalf("summaries out of profile order: %+v", sums)
	}
	// Before any access, summaries fall back to nominal read bandwidth.
	if sums[0].RecentThroughput != 1e9 || sums[1].RecentThroughput != 1e8 {
		t.Fatalf("idle-device fallback wrong: %+v", sums)
	}
	if !sums[0].Available || sums[0].ReadOnly {
		t.Fatalf("flags wrong: %+v", sums[0])
	}

	if err := c.PlaceFile(1, "/f1", 100, "a"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Access(1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := c.DeviceSummaries()[0].RecentThroughput
	if got != res.Throughput {
		t.Fatalf("first observation should seed the EWMA: got %v, want %v", got, res.Throughput)
	}
	res2, err := c.Access(1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Throughput + recentTPAlpha*(res2.Throughput-res.Throughput)
	if got := c.DeviceSummaries()[0].RecentThroughput; got != want {
		t.Fatalf("EWMA after second access = %v, want %v", got, want)
	}
	// Device b stays on its fallback.
	if got := c.DeviceSummaries()[1].RecentThroughput; got != 1e8 {
		t.Fatalf("untouched device EWMA moved: %v", got)
	}

	if err := c.SetReadOnly("b", true); err != nil {
		t.Fatal(err)
	}
	if !c.DeviceSummaries()[1].ReadOnly {
		t.Fatal("ReadOnly flag not reflected in summary")
	}
}

func TestDeviceSummariesSurviveRestore(t *testing.T) {
	c := tinyCluster(t, 1000, 1000)
	if err := c.PlaceFile(1, "/f1", 100, "a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Access(1, 500, 100); err != nil {
			t.Fatal(err)
		}
	}
	st := c.State()

	re := tinyCluster(t, 1000, 1000)
	if err := re.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	want := c.DeviceSummaries()
	got := re.DeviceSummaries()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("summary %d diverged after restore: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAccountingInvariant drives a cluster through arbitrary interleavings
// of placements, re-placements, moves, accesses, and deliberately failing
// ops, checking after every step that each device's used bytes equal the
// summed sizes of the files resident on it — the invariant the PlaceFile
// bug violated.
func TestAccountingInvariant(t *testing.T) {
	const files = 40
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run("", func(t *testing.T) {
			c, err := NewCluster([]DeviceProfile{
				{Name: "a", Class: "ssd", ReadBW: 1e9, WriteBW: 1e9, Capacity: 3000},
				{Name: "b", Class: "ssd", ReadBW: 8e8, WriteBW: 8e8, Capacity: 2000},
				{Name: "d", Class: "hdd", ReadBW: 2e8, WriteBW: 1e8, Capacity: 1500},
				{Name: "e", Class: "hdd", ReadBW: 1e8, WriteBW: 5e7, Capacity: 800},
			}, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			devs := []string{"a", "b", "d", "e", "nope"} // includes an unknown device
			r := rand.New(rand.NewSource(seed))

			check := func(step int) {
				t.Helper()
				bySizes := map[string]int64{}
				var total int64
				for _, f := range c.Files() {
					bySizes[f.Device] += f.Size
					total += f.Size
				}
				var usedTotal int64
				for _, s := range c.DeviceStats() {
					if s.Used != bySizes[s.Name] {
						t.Fatalf("step %d: device %s used=%d but resident files sum to %d", step, s.Name, s.Used, bySizes[s.Name])
					}
					if s.Used < 0 {
						t.Fatalf("step %d: device %s used went negative: %d", step, s.Name, s.Used)
					}
					usedTotal += s.Used
				}
				if usedTotal != total {
					t.Fatalf("step %d: total used %d != total file bytes %d", step, usedTotal, total)
				}
			}

			for step := 0; step < 600; step++ {
				id := int64(r.Intn(files))
				dev := devs[r.Intn(len(devs))]
				switch r.Intn(6) {
				case 0, 1: // place or re-place, sometimes oversized
					size := int64(r.Intn(1200))
					_ = c.PlaceFile(id, "/f", size, dev)
				case 2: // move, often failing on capacity or unknown file
					_, _ = c.Move(id, dev)
				case 3: // access
					_, _ = c.Access(id, int64(r.Intn(1000)), int64(r.Intn(1000)))
				case 4: // flip availability, then restore it
					_ = c.SetAvailable(dev, r.Intn(2) == 0)
				case 5: // flip read-only
					_ = c.SetReadOnly(dev, r.Intn(2) == 0)
				}
				check(step)
			}
		})
	}
}
