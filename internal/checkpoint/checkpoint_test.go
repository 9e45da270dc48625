package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/workload"
)

// sampleSnapshot builds a snapshot with enough populated fields to catch
// field-level encoding regressions.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seed:    42,
		Runs:    7,
		TpSum:   1.5e9,
		TpCount: 1200,
		Stats:   []workload.RunStats{{Run: 0, Accesses: 300, Bytes: 1 << 30, MeanThroughput: 2e9}},
		Cluster: storagesim.ClusterState{
			Now: 123.5,
			RNG: 0xDEADBEEF,
			Devices: []storagesim.DeviceState{
				{Name: "file0", Available: true, Used: 1 << 20, BurstRNG: 7, EraRNG: 8},
			},
			Files: []storagesim.FileState{{ID: 1, Path: "/f1", Size: 1 << 20, Device: "file0"}},
		},
		WorkloadName:    "belle",
		Workload:        []byte{0x01, 0x02, 0x03},
		ReplayWatermark: 4321,
		Accesses:        []replaydb.AccessRecord{{Seq: 1, FileID: 1, Device: "file0", Throughput: 3e9}},
		AccessCount:     9,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != snap.Seed || got.Runs != snap.Runs || got.TpCount != snap.TpCount {
		t.Errorf("scalar fields did not round-trip: %+v", got)
	}
	if len(got.Cluster.Devices) != 1 || got.Cluster.Devices[0].Name != "file0" {
		t.Errorf("cluster state did not round-trip: %+v", got.Cluster)
	}
	if got.ReplayWatermark != 4321 || len(got.Accesses) != 1 || got.AccessCount != 9 {
		t.Errorf("replay state did not round-trip: %+v", got)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOTMAGIC and then some")))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	// No reader is kept for the previous format: an otherwise intact file
	// under the GCKP0004 magic is corrupt, not half-understood.
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("GCKP0004"), buf.Bytes()[len(magic):]...)
	if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("GCKP0004 file: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, len(magic), len(magic) + 3, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestReadRejectsBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a bit in the middle of the gob payload.
	data[len(magic)+5+len(data)/3] ^= 0x40
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: err = %v, want ErrCorrupt", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 {
		t.Errorf("Seed = %d, want 42", got.Seed)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after Save, want 1", len(entries))
	}
}

func TestLoadMissing(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing file: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestStoreRotation(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 5; i++ {
		snap := sampleSnapshot()
		snap.Runs = i
		if last, err = s.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	nums, err := s.indexes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) != keepCount {
		t.Errorf("store retains %d snapshots, want %d", len(nums), keepCount)
	}
	got, path, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != 4 {
		t.Errorf("Latest Runs = %d, want 4", got.Runs)
	}
	if path != last {
		t.Errorf("Latest path = %s, want %s", path, last)
	}
}

func TestStoreResumeNumbering(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path, err := s2.Save(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "snap-000002.ckpt" {
		t.Errorf("reopened store wrote %s, want snap-000002.ckpt", filepath.Base(path))
	}
}

func TestStoreFallsBackPastCorruptLatest(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := sampleSnapshot()
	good.Runs = 1
	if _, err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	bad := sampleSnapshot()
	bad.Runs = 2
	badPath, err := s.Save(bad)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot in place.
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, path, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != 1 {
		t.Errorf("fell back to Runs = %d, want 1 (the intact predecessor)", got.Runs)
	}
	if path == badPath {
		t.Error("Latest returned the corrupt path")
	}
}

func TestStoreAllCorrupt(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.Save(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("all-corrupt store: err = %v, want ErrCorrupt", err)
	}
}

func TestStoreEmpty(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty store: err = %v, want ErrNoCheckpoint", err)
	}
}
