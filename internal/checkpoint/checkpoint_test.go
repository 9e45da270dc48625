package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/nn"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/workload"
)

// sampleSnapshot builds a snapshot with enough populated fields — every
// section among them — to catch field-level encoding regressions.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seed:    42,
		Runs:    7,
		TpSum:   1.5e9,
		TpCount: 1200,
		Stats:   []workload.RunStats{{Run: 0, Accesses: 300, Bytes: 1 << 30, MeanThroughput: 2e9}},
		Engine: core.EngineState{
			RNG: 99,
			// Model 1 over one feature: the deployed architecture, small.
			Net:     nn.MustBuildModel(1, 1, rand.New(rand.NewSource(70))).State(),
			Devices: []string{"file0"},
			Trained: true,
		},
		Loop: core.LoopState{
			AccessCount: 300,
			TrainLog:    []core.TrainReport{{Samples: 250, Epochs: 4, FinalLoss: 0.25, Validation: nn.Metrics{MARE: 12.5, Diverged: true}}},
			Movements:   []core.MovementEvent{{AccessIndex: 300, Moved: 3, Run: 1, Random: 1}},
		},
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

// weightBlock is the weight block st writes.
func weightBlock(t testing.TB, st *nn.State) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.WriteWeights(&b, make([]byte, 0, 64)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
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
	if !reflect.DeepEqual(got.Stats, snap.Stats) || !reflect.DeepEqual(got.Loop.TrainLog, snap.Loop.TrainLog) ||
		!reflect.DeepEqual(got.Loop.Movements, snap.Loop.Movements) {
		t.Errorf("history sections did not round-trip: %+v, %+v, %+v", got.Stats, got.Loop.TrainLog, got.Loop.Movements)
	}
	if !bytes.Equal(weightBlock(t, &got.Engine.Net), weightBlock(t, &snap.Engine.Net)) {
		t.Error("model weights did not round-trip")
	}
	gotEngine, wantEngine := got.Engine, snap.Engine
	gotEngine.Net.Weights, wantEngine.Net.Params = nil, nil
	if !reflect.DeepEqual(gotEngine, wantEngine) {
		t.Errorf("engine state did not round-trip: %+v", got.Engine)
	}
}

// fill sets every field of v, recursively, to a value of its own.
func fill(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fill(v.Field(i), next)
		}
		return
	case reflect.Int, reflect.Int64:
		v.SetInt(*next)
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fill: no value for a " + v.Kind().String() + " field")
	}
	*next++
}

// TestSectionsCarryEveryField: a record of each fixed-width section with
// every field set — nested ones too — reads back equal, so a field added
// to RunStats, TrainReport or MovementEvent fails here until its section
// carries it.
func TestSectionsCarryEveryField(t *testing.T) {
	var snap Snapshot
	snap.Stats = make([]workload.RunStats, 2)
	snap.Loop.TrainLog = make([]core.TrainReport, 2)
	snap.Loop.Movements = make([]core.MovementEvent, 2)
	next := int64(1)
	for _, recs := range []any{snap.Stats, snap.Loop.TrainLog, snap.Loop.Movements} {
		v := reflect.ValueOf(recs)
		for i := range v.Len() {
			fill(v.Index(i), &next)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, snap.Stats) {
		t.Errorf("stats section: %+v, want %+v", got.Stats, snap.Stats)
	}
	if !reflect.DeepEqual(got.Loop.TrainLog, snap.Loop.TrainLog) {
		t.Errorf("train log section: %+v, want %+v", got.Loop.TrainLog, snap.Loop.TrainLog)
	}
	if !reflect.DeepEqual(got.Loop.Movements, snap.Loop.Movements) {
		t.Errorf("movements section: %+v, want %+v", got.Loop.Movements, snap.Loop.Movements)
	}
}

// withWeights returns file, a valid checkpoint, with its weight section
// replaced by weights and the lengths and CRC made consistent again, so
// only the check of the model's architecture against its block can refuse
// it.
func withWeights(t testing.TB, file, weights []byte) []byte {
	t.Helper()
	payload := file[frameHeader : len(file)-4]
	headLen := binary.LittleEndian.Uint32(payload)
	rest := payload[4+headLen:]
	oldLen := binary.LittleEndian.Uint32(rest)
	body := append([]byte(nil), payload[:4+headLen]...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(weights)))
	body = append(body, weights...)
	body = append(body, rest[4+oldLen:]...)
	out := append([]byte(nil), file[:len(magic)+1]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// TestReadRejectsWeightsTheSpecsDoNotNeed: a checkpoint whose weight
// section is shorter or longer than its layer specs need, or whose specs
// declare a layer no weight section could back, is ErrCorrupt, and reading
// it allocates what the file holds, not what the specs declare.
func TestReadRejectsWeightsTheSpecsDoNotNeed(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	weights := weightBlock(t, &snap.Engine.Net)
	huge := sampleSnapshot()
	huge.Engine.Net = nn.State{InSize: 6, Window: nn.DefaultWindow,
		Layers: []nn.LayerSpec{{Fixed: 1 << 30, Kind: "Dense", Act: nn.Linear}},
		Params: [][]float64{make([]float64, 6), {0}}}
	var hugeBuf bytes.Buffer
	if err := Write(&hugeBuf, huge); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"one value short":   withWeights(t, file, weights[:len(weights)-8]),
		"five values long":  withWeights(t, file, append(append([]byte(nil), weights...), make([]byte, 40)...)),
		"a partial value":   withWeights(t, file, weights[:len(weights)-3]),
		"no weights at all": withWeights(t, file, nil),
		"a 2^30-wide layer": hugeBuf.Bytes(),
	}
	if _, err := Read(bytes.NewReader(withWeights(t, file, weights))); err != nil {
		t.Fatalf("the rebuilt valid checkpoint: %v", err)
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(data))+1<<20; grew > limit {
			t.Errorf("%s: Read allocated %d bytes for a %d-byte file (limit %d)", name, grew, len(data), limit)
		}
	}
}

// TestLoadKeepsTheWeightBlock: Load reads a file into one buffer of its
// payload's size and keeps the model's weight block in it, undecoded and
// uncopied, so a checkpoint whose 2 MB of weights are nearly all of it
// loads in little more than its own length, and its model rebuilds from
// the block bit for bit.
func TestLoadKeepsTheWeightBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	snap := sampleSnapshot()
	big := nn.NewNetwork(6).AddDense(1<<15, nn.ReLU, rng).AddDense(1, nn.Linear, rng)
	snap.Engine.Net = big.State()
	path := filepath.Join(t.TempDir(), "big.ckpt")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil { // gob compiles its decoders once
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Load(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(info.Size())+64<<10; grew > limit {
		t.Errorf("Load allocated %d bytes for a %d-byte file (limit %d)", grew, info.Size(), limit)
	}
	rebuilt, err := got.Engine.Net.Network()
	if err != nil {
		t.Fatal(err)
	}
	want := weightBlock(t, &snap.Engine.Net)
	if again := rebuilt.State(); !bytes.Equal(weightBlock(t, &again), want) {
		t.Error("the model rebuilt from the kept block has other weights")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOTMAGIC and then some")))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	// No reader is kept for the previous formats: an otherwise intact file
	// under an older magic is corrupt, not half-understood.
	var buf bytes.Buffer
	if err := Write(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"GCKP0004", "GCKP0005", "GCKP0006"} {
		old := append([]byte(m), buf.Bytes()[len(magic):]...)
		if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s file: err = %v, want ErrCorrupt", m, err)
		}
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
