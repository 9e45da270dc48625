package policy

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"geomancy/internal/rng"
)

// testState builds 6 devices (fastest first by construction: d0 fastest)
// and n files with LastAccess == ID and Accesses == 100-ID.
func testState(nFiles int) State {
	s := State{}
	names := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	for i, n := range names {
		s.Devices = append(s.Devices, DeviceInfo{Name: n, Throughput: float64(1000 - 100*i), Free: 1 << 40})
	}
	for i := 0; i < nFiles; i++ {
		s.Files = append(s.Files, FileInfo{
			ID:         int64(i + 1),
			Size:       1000,
			Device:     "d0",
			LastAccess: float64(i + 1),       // file n is the most recent
			Accesses:   int64(100 - (i + 1)), // file 1 is the most frequent
		})
	}
	return s
}

// propose asks p for a layout through Propose, failing the test on error.
func propose(t *testing.T, p Policy, s State) map[int64]string {
	t.Helper()
	layout, err := p.Propose(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestLRUPlacesRecentOnFast(t *testing.T) {
	s := testState(24)
	layout := propose(t, LRU(), s)
	if len(layout) != 24 {
		t.Fatalf("layout has %d entries, want 24", len(layout))
	}
	// Most recently used files are 24..21 → group 0 → fastest device d0.
	for id := int64(21); id <= 24; id++ {
		if layout[id] != "d0" {
			t.Errorf("file %d on %s, want d0 (most recent → fastest)", id, layout[id])
		}
	}
	// Least recently used files 1..4 → slowest device d5.
	for id := int64(1); id <= 4; id++ {
		if layout[id] != "d5" {
			t.Errorf("file %d on %s, want d5 (least recent → slowest)", id, layout[id])
		}
	}
}

func TestMRUPlacesRecentOnSlow(t *testing.T) {
	s := testState(24)
	layout := propose(t, MRU(), s)
	for id := int64(21); id <= 24; id++ {
		if layout[id] != "d5" {
			t.Errorf("file %d on %s, want d5 (most recent → slowest)", id, layout[id])
		}
	}
	for id := int64(1); id <= 4; id++ {
		if layout[id] != "d0" {
			t.Errorf("file %d on %s, want d0", id, layout[id])
		}
	}
}

func TestLFUPlacesHotOnFast(t *testing.T) {
	s := testState(24)
	layout := propose(t, LFU(), s)
	// Files 1..4 have the highest access counts → fastest device.
	for id := int64(1); id <= 4; id++ {
		if layout[id] != "d0" {
			t.Errorf("file %d on %s, want d0 (most accessed → fastest)", id, layout[id])
		}
	}
	for id := int64(21); id <= 24; id++ {
		if layout[id] != "d5" {
			t.Errorf("file %d on %s, want d5", id, layout[id])
		}
	}
}

func TestRemainderGoesToSlowest(t *testing.T) {
	// 26 files over 6 devices: groups of 4, remainder 2 → slowest.
	s := testState(26)
	layout := propose(t, LRU(), s)
	count := map[string]int{}
	for _, d := range layout {
		count[d]++
	}
	if count["d5"] != 4+2 {
		t.Errorf("slowest device got %d files, want 6 (group + remainder)", count["d5"])
	}
	for _, d := range []string{"d0", "d1", "d2", "d3", "d4"} {
		if count[d] != 4 {
			t.Errorf("device %s got %d files, want 4", d, count[d])
		}
	}
}

func TestFewerFilesThanDevices(t *testing.T) {
	s := testState(3)
	layout := propose(t, LFU(), s)
	if len(layout) != 3 {
		t.Fatalf("layout has %d entries, want 3", len(layout))
	}
	used := map[string]bool{}
	for _, d := range layout {
		if used[d] {
			t.Error("with fewer files than devices each file gets its own device")
		}
		used[d] = true
	}
}

func TestEmptyState(t *testing.T) {
	for _, p := range []Policy{LRU(), MRU(), LFU(), &RandomDynamic{Rng: rng.New(1)}, NoOp{}} {
		if l := propose(t, p, State{}); l != nil {
			t.Errorf("%s on empty state = %v, want nil", p.Name(), l)
		}
	}
}

func TestRandomStaticFiresOnce(t *testing.T) {
	p := &RandomStatic{Rng: rng.New(2)}
	s := testState(10)
	first := propose(t, p, s)
	if first == nil || len(first) != 10 {
		t.Fatalf("first layout = %v", first)
	}
	if second := propose(t, p, s); second != nil {
		t.Error("random static must not move files twice")
	}
}

func TestRandomDynamicReshuffles(t *testing.T) {
	p := &RandomDynamic{Rng: rng.New(3)}
	s := testState(24)
	a := propose(t, p, s)
	b := propose(t, p, s)
	if a == nil || b == nil {
		t.Fatal("dynamic layouts must not be nil")
	}
	same := true
	for id := range a {
		if a[id] != b[id] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive random dynamic layouts identical (astronomically unlikely)")
	}
}

func TestStaticPolicy(t *testing.T) {
	target := map[int64]string{1: "d3", 2: "d1"}
	p := &Static{Desc: "Geomancy static", Target: target}
	if p.Name() != "Geomancy static" {
		t.Errorf("Name = %q", p.Name())
	}
	if got := propose(t, p, State{}); len(got) != 2 || got[1] != "d3" {
		t.Errorf("first Propose = %v", got)
	}
	if got := propose(t, p, State{}); got != nil {
		t.Error("static must fire once")
	}
	anon := &Static{}
	if anon.Name() != "static" {
		t.Errorf("default name = %q", anon.Name())
	}
}

func TestSingleMount(t *testing.T) {
	p := &SingleMount{Device: "file0"}
	if p.Name() != "all-on-file0" {
		t.Errorf("Name = %q", p.Name())
	}
	s := testState(5)
	layout := propose(t, p, s)
	for id, d := range layout {
		if d != "file0" {
			t.Errorf("file %d on %s, want file0", id, d)
		}
	}
	if propose(t, p, s) != nil {
		t.Error("single mount must fire once")
	}
}

func TestDevicesByThroughputStable(t *testing.T) {
	devs := []DeviceInfo{
		{Name: "slow", Throughput: 1},
		{Name: "fast", Throughput: 100},
		{Name: "mid", Throughput: 50},
	}
	got := devicesByThroughput(devs)
	want := []string{"fast", "mid", "slow"}
	for i := range want {
		if got[i].Name != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, got[i].Name, want[i])
		}
	}
	// Input untouched.
	if devs[0].Name != "slow" {
		t.Error("devicesByThroughput mutated its input")
	}
}

// Property: every heuristic layout maps every file to a known device, and
// group sizes differ by at most the remainder.
func TestHeuristicLayoutsComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		s := testState(n)
		for _, p := range []Policy{LRU(), MRU(), LFU()} {
			layout := propose(t, p, s)
			if len(layout) != n {
				return false
			}
			valid := map[string]bool{}
			for _, d := range s.Devices {
				valid[d.Name] = true
			}
			for _, dev := range layout {
				if !valid[dev] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
