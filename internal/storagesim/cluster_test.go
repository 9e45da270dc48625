package storagesim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBlueskyDevices(t *testing.T) {
	c := NewBluesky(1)
	names := c.DeviceNames()
	want := []string{"file0", "pic", "people", "tmp", "var", "USBtmp"}
	if len(names) != len(want) {
		t.Fatalf("got %d devices, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("device %d = %q, want %q", i, names[i], want[i])
		}
	}
	if c.Device("file0") == nil || c.Device("nope") != nil {
		t.Error("Device lookup broken")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, Config{}); err == nil {
		t.Error("empty cluster should error")
	}
	if _, err := NewCluster([]DeviceProfile{{Name: ""}}, Config{}); err == nil {
		t.Error("unnamed device should error")
	}
	if _, err := NewCluster([]DeviceProfile{
		{Name: "a", ReadBW: 1, WriteBW: 1},
		{Name: "a", ReadBW: 1, WriteBW: 1},
	}, Config{}); err == nil {
		t.Error("duplicate device should error")
	}
	if _, err := NewCluster([]DeviceProfile{{Name: "a"}}, Config{}); err == nil {
		t.Error("zero bandwidth should error")
	}
}

func TestPlaceAndAccess(t *testing.T) {
	c := NewBluesky(2)
	if err := c.PlaceFile(1, "/belle2/a.root", 100e6, "file0"); err != nil {
		t.Fatal(err)
	}
	f, err := c.File(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Device != "file0" || f.Size != 100e6 {
		t.Errorf("file state = %+v", f)
	}

	// A sizeable read keeps the duration well above millisecond
	// resolution, so the split-timestamp throughput check below is
	// meaningful.
	res, err := c.Access(1, 5e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device != "file0" || res.BytesRead != 5e9 {
		t.Errorf("access result = %+v", res)
	}
	if res.End <= res.Start {
		t.Error("access must take positive time")
	}
	if res.Throughput <= 0 {
		t.Error("throughput must be positive")
	}
	// Clock advanced to the access end.
	if got := c.Now(); got != res.End {
		t.Errorf("Now = %v, want %v", got, res.End)
	}
	// Paper formula consistency: (rb+wb)/((cts+ctms/1e3)-(ots+otms/1e3))
	dur := (float64(res.CloseTS) + float64(res.CloseTMS)/1000) - (float64(res.OpenTS) + float64(res.OpenTMS)/1000)
	if dur <= 0 {
		t.Fatal("split timestamps give non-positive duration")
	}
	tsTp := float64(res.BytesRead+res.BytesWritten) / dur
	if math.Abs(tsTp-res.Throughput)/res.Throughput > 0.05 {
		t.Errorf("timestamp throughput %v deviates from exact %v", tsTp, res.Throughput)
	}
}

func TestAccessErrors(t *testing.T) {
	c := NewBluesky(3)
	if _, err := c.Access(42, 100, 0); err == nil {
		t.Error("access to unknown file should error")
	}
	c.PlaceFile(1, "/f", 1e6, "pic")
	if _, err := c.Access(1, -1, 0); err == nil {
		t.Error("negative size should error")
	}
	c.SetAvailable("pic", false)
	if _, err := c.Access(1, 100, 0); err == nil {
		t.Error("access on unavailable device should error")
	}
}

func TestPlaceFileErrors(t *testing.T) {
	c := NewBluesky(4)
	if err := c.PlaceFile(1, "/f", 100, "nodev"); err == nil {
		t.Error("unknown device should error")
	}
	if err := c.PlaceFile(1, "/f", -5, "pic"); err == nil {
		t.Error("negative size should error")
	}
	c.SetReadOnly("pic", true)
	if err := c.PlaceFile(1, "/f", 100, "pic"); err == nil {
		t.Error("read-only device should reject placement")
	}
	c.SetAvailable("var", false)
	if err := c.PlaceFile(1, "/f", 100, "var"); err == nil {
		t.Error("unavailable device should reject placement")
	}
	// Capacity.
	if err := c.PlaceFile(2, "/big", int64(5e18), "file0"); err == nil {
		t.Error("oversized file should be rejected")
	}
}

func TestPlaceFileRehome(t *testing.T) {
	c := NewBluesky(5)
	c.PlaceFile(1, "/f", 100e6, "file0")
	before := c.Device("file0").Used()
	if err := c.PlaceFile(1, "/f", 100e6, "pic"); err != nil {
		t.Fatal(err)
	}
	if got := c.Device("file0").Used(); got != before-100e6 {
		t.Errorf("old device usage = %d, want %d", got, before-100e6)
	}
	if got := c.Device("pic").Used(); got != 100e6 {
		t.Errorf("new device usage = %d, want 100e6", got)
	}
}

func TestMoveTransfersAndCharges(t *testing.T) {
	c := NewBluesky(6)
	c.PlaceFile(1, "/f", 500e6, "USBtmp")
	t0 := c.Now()
	mv, err := c.Move(1, "file0")
	if err != nil {
		t.Fatal(err)
	}
	if mv.From != "USBtmp" || mv.To != "file0" || mv.Bytes != 500e6 {
		t.Errorf("move result = %+v", mv)
	}
	if mv.Duration <= 0 {
		t.Error("move must take time")
	}
	// Clock advanced by the blocking fraction only.
	dt := c.Now() - t0
	if dt <= 0 || dt >= mv.Duration {
		t.Errorf("clock advanced %v, want in (0, %v)", dt, mv.Duration)
	}
	f, _ := c.File(1)
	if f.Device != "file0" {
		t.Errorf("file on %q after move", f.Device)
	}
	if c.Device("USBtmp").Used() != 0 || c.Device("file0").Used() != 500e6 {
		t.Error("usage accounting wrong after move")
	}
}

func TestMoveNoOpAndErrors(t *testing.T) {
	c := NewBluesky(7)
	c.PlaceFile(1, "/f", 1e6, "pic")
	t0 := c.Now()
	mv, err := c.Move(1, "pic")
	if err != nil {
		t.Fatal(err)
	}
	if mv.Duration != 0 || c.Now() != t0 {
		t.Error("same-device move should be free")
	}
	if _, err := c.Move(99, "pic"); err == nil {
		t.Error("unknown file should error")
	}
	if _, err := c.Move(1, "nodev"); err == nil {
		t.Error("unknown device should error")
	}
	c.SetReadOnly("file0", true)
	if _, err := c.Move(1, "file0"); err == nil {
		t.Error("read-only destination should error")
	}
	c.SetAvailable("var", false)
	if _, err := c.Move(1, "var"); err == nil {
		t.Error("unavailable destination should error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		c := NewBluesky(42)
		c.PlaceFile(1, "/f", 200e6, "pic")
		c.PlaceFile(2, "/g", 300e6, "people")
		var tps []float64
		for i := 0; i < 50; i++ {
			r, err := c.Access(int64(i%2+1), 50e6, 0)
			if err != nil {
				t.Fatal(err)
			}
			tps = append(tps, r.Throughput)
		}
		return tps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at access %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDeviceSpeedOrdering(t *testing.T) {
	// Averaged over many accesses, file0 must beat USBtmp decisively —
	// the Table IV ordering the policies rely on.
	c := NewBluesky(8)
	c.PlaceFile(1, "/fast", 100e6, "file0")
	c.PlaceFile(2, "/slow", 100e6, "USBtmp")
	var fast, slow float64
	for i := 0; i < 200; i++ {
		r1, _ := c.Access(1, 50e6, 0)
		r2, _ := c.Access(2, 50e6, 0)
		fast += r1.Throughput
		slow += r2.Throughput
	}
	if fast < 3*slow {
		t.Errorf("file0 (%v) should be ≫ USBtmp (%v)", fast/200, slow/200)
	}
}

func TestSelfContentionSlowsDevice(t *testing.T) {
	// Hammering one device should reduce its observed per-access
	// throughput versus a fresh clone of the same cluster state.
	c := NewBluesky(9)
	c.PlaceFile(1, "/a", 1e9, "tmp")
	// Warm up load.
	for i := 0; i < 30; i++ {
		c.Access(1, 500e6, 0)
	}
	loaded := c.Device("tmp")
	loaded.decayLoad(c.Now())
	if loaded.load <= 0 {
		t.Error("sustained traffic should accumulate load")
	}
	// Decay: after a long idle period load shrinks.
	before := loaded.load
	loaded.decayLoad(c.Now() + 300)
	if loaded.load >= before/100 {
		t.Errorf("load should decay: %v -> %v", before, loaded.load)
	}
}

func TestSetAvailableUnknown(t *testing.T) {
	c := NewBluesky(11)
	if err := c.SetAvailable("nodev", true); err == nil {
		t.Error("unknown device should error")
	}
	if err := c.SetReadOnly("nodev", true); err == nil {
		t.Error("unknown device should error")
	}
}

func TestLayoutAndFiles(t *testing.T) {
	c := NewBluesky(12)
	c.PlaceFile(2, "/b", 10, "pic")
	c.PlaceFile(1, "/a", 10, "file0")
	files := c.Files()
	if len(files) != 2 || files[0].ID != 1 || files[1].ID != 2 {
		t.Errorf("Files = %+v, want sorted by ID", files)
	}
	layout := c.Layout()
	if layout[1] != "file0" || layout[2] != "pic" {
		t.Errorf("Layout = %v", layout)
	}
	if _, err := c.File(99); err == nil {
		t.Error("unknown file should error")
	}
}

func TestDeviceStatsAccounting(t *testing.T) {
	c := NewBluesky(13)
	c.PlaceFile(1, "/a", 50e6, "var")
	for i := 0; i < 10; i++ {
		c.Access(1, 10e6, 1e6)
	}
	stats := c.DeviceStats()
	var varStats *Stats
	for i := range stats {
		if stats[i].Name == "var" {
			varStats = &stats[i]
		}
	}
	if varStats == nil {
		t.Fatal("var missing from stats")
	}
	if varStats.Accesses != 10 {
		t.Errorf("accesses = %d, want 10", varStats.Accesses)
	}
	if varStats.BytesServed != 10*(10e6+1e6) {
		t.Errorf("bytes served = %d", varStats.BytesServed)
	}
	if varStats.BusySeconds <= 0 {
		t.Error("busy seconds should accumulate")
	}
	if c.totalAccesses != 10 {
		t.Errorf("totalAccesses = %d", c.totalAccesses)
	}
}

func TestSplitTS(t *testing.T) {
	s, ms := splitTS(12.345)
	if s != 12 || ms != 345 {
		t.Errorf("splitTS(12.345) = %d,%d", s, ms)
	}
	s, ms = splitTS(99.9999)
	if s != 99 || ms != 999 {
		t.Errorf("splitTS(99.9999) = %d,%d; ms must clamp to 999", s, ms)
	}
}

// Property: capacity accounting is conserved — sum of Used equals the sum
// of placed file sizes after arbitrary placement/move sequences.
func TestCapacityConservation(t *testing.T) {
	f := func(seed int64) bool {
		c := NewBluesky(seed)
		names := c.DeviceNames()
		rng := newRand(seed)
		var total int64
		for i := int64(1); i <= 20; i++ {
			size := int64(1e6) + rng.Int63n(int64(50e6))
			dev := names[rng.Intn(len(names))]
			if err := c.PlaceFile(i, "/f", size, dev); err != nil {
				continue
			}
			total += size
		}
		for i := 0; i < 30; i++ {
			id := 1 + rng.Int63n(20)
			dev := names[rng.Intn(len(names))]
			c.Move(id, dev) // errors fine (unknown file / full)
		}
		var used int64
		for _, s := range c.DeviceStats() {
			used += s.Used
		}
		return used == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestExternalLoadClamped(t *testing.T) {
	d := newDevice(DeviceProfile{
		Name: "x", ReadBW: 1e9, WriteBW: 1e9,
		External: ExternalLoad{Base: 5, WaveAmp: 5, WavePeriod: 100, BurstRate: 100, BurstLoad: 5, BurstMean: 1000},
	}, 1)
	for _, tm := range []float64{0, 10, 50, 1000, 9999} {
		if l := d.externalLoad(tm); l < 0 || l > 0.97 {
			t.Fatalf("external load %v at t=%v outside [0, 0.97]", l, tm)
		}
	}
}

func TestBurstScheduleAdvances(t *testing.T) {
	d := newDevice(DeviceProfile{
		Name: "x", ReadBW: 1e9, WriteBW: 1e9,
		External: ExternalLoad{BurstRate: 60, BurstLoad: 0.5, BurstMean: 10},
	}, 2)
	// Sampling far into the future must roll the schedule forward, not
	// loop forever or stall.
	_ = d.externalLoad(1e6)
	if d.burstEnd < 1e6-1e5 && !math.IsInf(d.burstEnd, 1) {
		t.Errorf("burst schedule did not advance: end %v", d.burstEnd)
	}
}

// newRand is a tiny helper so property tests can derive their own stream.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestClusterValidator(t *testing.T) {
	c := NewBluesky(5)
	v := c.CanPlace
	if err := v("file0", 1000); err != nil {
		t.Errorf("healthy device rejected: %v", err)
	}
	if err := v("nodev", 0); err == nil {
		t.Error("unknown device accepted")
	}
	c.SetAvailable("pic", false)
	if err := v("pic", 0); err == nil {
		t.Error("unavailable device accepted")
	}
	c.SetReadOnly("var", true)
	if err := v("var", 0); err == nil {
		t.Error("read-only device accepted")
	}
	if err := v("tmp", int64(5e18)); err == nil {
		t.Error("oversized placement accepted")
	}
}
