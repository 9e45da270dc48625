package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"geomancy/internal/features"
	"geomancy/internal/mat"
	"geomancy/internal/replaydb"
)

// referenceTrainingRows is the training-set builder TrainingSet replaced,
// kept test-only as the reference it must match bit for bit (as
// predictCandidate is for scoring): it copies each device's window out of
// the store, concatenates the copies, sorts them stably by time, turns each
// record into a six-float slice, and smooths per (device, file) through a
// map of groups, features.MovingAverage and a cumulative average of its
// own.
func referenceTrainingRows(store TelemetryStore, devices []string, devIndex map[string]int, window int, target func(*replaydb.AccessRecord) float64, smooth int) (rows [][]float64, targets []float64) {
	var recs []replaydb.AccessRecord
	for _, dev := range devices {
		recs = append(recs, store.RecentByDevice(dev, window)...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	rows = make([][]float64, len(recs))
	targets = make([]float64, len(recs))
	for i := range recs {
		rows[i] = referenceFeatureVector(&recs[i], devIndex)
		targets[i] = target(&recs[i])
	}
	referenceSmoothGrouped(recs, rows, targets, smooth)
	return rows, targets
}

// referenceFeatureVector is the six features of one record: rb, wb, ots,
// cts, fid, and the device's index in devIndex (one past it if unlisted).
func referenceFeatureVector(rec *replaydb.AccessRecord, devIndex map[string]int) []float64 {
	devIdx, ok := devIndex[rec.Device]
	if !ok {
		devIdx = len(devIndex)
	}
	return []float64{
		logBytes(float64(rec.BytesRead)),
		logBytes(float64(rec.BytesWritten)),
		float64(rec.OpenTS) + float64(rec.OpenTMS)/1000,
		float64(rec.CloseTS) + float64(rec.CloseTMS)/1000,
		float64(rec.FileID),
		float64(devIdx),
	}
}

// referenceSmoothGrouped smooths targets and rows columns 0 and 1 within
// each (device, file) subsequence of the time-ordered recs.
func referenceSmoothGrouped(recs []replaydb.AccessRecord, rows [][]float64, targets []float64, window int) {
	if window == 1 || window == 0 {
		return
	}
	smooth := func(sub []float64) []float64 {
		if window > 1 {
			return features.MovingAverage(sub, window)
		}
		out := make([]float64, len(sub)) // the cumulative average
		var sum float64
		for i, v := range sub {
			sum += v
			out[i] = sum / float64(i+1)
		}
		return out
	}
	type key struct {
		device string
		fileID int64
	}
	groups := make(map[key][]int)
	for i := range recs {
		k := key{recs[i].Device, recs[i].FileID}
		groups[k] = append(groups[k], i)
	}
	for _, idxs := range groups {
		sub := make([]float64, len(idxs))
		for j, i := range idxs {
			sub[j] = targets[i]
		}
		sub = smooth(sub)
		for j, i := range idxs {
			targets[i] = sub[j]
		}
		for col := 0; col <= 1; col++ {
			for j, i := range idxs {
				sub[j] = rows[i][col]
			}
			sc := smooth(sub[:len(idxs)])
			for j, i := range idxs {
				rows[i][col] = sc[j]
			}
		}
	}
}

// copyOnlyStore answers window queries with copies and has no window walk,
// the way agents.RemoteStore looks to the engine.
type copyOnlyStore struct{ db *replaydb.DB }

func (c copyOnlyStore) RecentByDevice(device string, n int) []replaydb.AccessRecord {
	return c.db.RecentByDevice(device, n)
}

func (c copyOnlyStore) RecentByFile(fileID int64, n int) []replaydb.AccessRecord {
	return c.db.RecentByFile(fileID, n)
}

// randomTelemetry returns n records over four devices — "ghost" among them,
// which the differential test's devIndex does not list — with times drawn
// from few enough values that devices tie, files drawn from a small pool
// (repeated groups) and, one time in ten, a file of its own (a group of
// one).
func randomTelemetry(rng *rand.Rand, n int) []replaydb.AccessRecord {
	devices := []string{"file0", "pic", "people", "ghost"}
	recs := make([]replaydb.AccessRecord, n)
	for i := range recs {
		file := int64(1 + rng.Intn(12))
		if rng.Intn(10) == 0 {
			file = int64(1000 + i)
		}
		open := int64(rng.Intn(n))
		recs[i] = replaydb.AccessRecord{
			Time:         float64(rng.Intn(n/6+1)) / 2,
			FileID:       file,
			Device:       devices[rng.Intn(len(devices))],
			BytesRead:    rng.Int63n(1 << 30),
			BytesWritten: rng.Int63n(1<<20) * int64(rng.Intn(2)),
			OpenTS:       open,
			OpenTMS:      rng.Int63n(1000),
			CloseTS:      open + rng.Int63n(3),
			CloseTMS:     rng.Int63n(1000),
			Throughput:   rng.Float64() * 2e9,
		}
	}
	return recs
}

// sameBits fails unless x and y hold exactly the reference's rows and
// targets, compared as bit patterns.
func sameBits(t *testing.T, what string, x *mat.Matrix, y []float64, rows [][]float64, targets []float64) {
	t.Helper()
	if x.Rows != len(rows) || x.Cols != featureCount || len(y) != len(targets) {
		t.Fatalf("%s: %d×%d rows and %d targets, reference %d rows and %d targets", what, x.Rows, x.Cols, len(y), len(rows), len(targets))
	}
	for i, row := range rows {
		for c, want := range row {
			if got := x.At(i, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: row %d col %d = %v, reference %v", what, i, c, got, want)
			}
		}
		if math.Float64bits(y[i]) != math.Float64bits(targets[i]) {
			t.Fatalf("%s: target %d = %v, reference %v", what, i, y[i], targets[i])
		}
	}
}

// trainingTargets are the targets the differential checks build sets
// under: the engine's two modeling targets and the raw throughput.
func trainingTargets() map[string]func(*replaydb.AccessRecord) float64 {
	latency := &Engine{cfg: Config{Target: TargetLatency}}
	return map[string]func(*replaydb.AccessRecord) float64{
		"throughput": func(rec *replaydb.AccessRecord) float64 { return EncodeTarget(rec.Throughput) },
		"latency":    func(rec *replaydb.AccessRecord) float64 { return EncodeTarget(latency.targetValue(rec)) },
		"raw":        func(rec *replaydb.AccessRecord) float64 { return rec.Throughput },
	}
}

// matchesReference appends recs to a keep-all database and to one under a
// retention horizon of window records per device, and fails unless
// TrainingSet, over either of them and over a store that only copies the
// first, builds bit for bit referenceTrainingRows's set, under every
// smoothing mode in smooths and every target in targets.
func matchesReference(t *testing.T, what string, recs []replaydb.AccessRecord, devices []string, devIndex map[string]int, window int, smooths []int, targets map[string]func(*replaydb.AccessRecord) float64) {
	t.Helper()
	keep, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	bound, err := replaydb.Open(replaydb.Options{Horizon: replaydb.Horizon{PerDevice: window, PerFile: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer bound.Close()
	for _, rec := range recs {
		if _, err := keep.AppendAccess(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := bound.AppendAccess(rec); err != nil {
			t.Fatal(err)
		}
	}
	stores := map[string]TelemetryStore{"keep-all": keep, "horizon": bound, "copy-only": copyOnlyStore{keep}}
	for _, smooth := range smooths {
		for tname, target := range targets {
			rows, ys := referenceTrainingRows(keep, devices, devIndex, window, target, smooth)
			for sname, store := range stores {
				x, y := TrainingSet(store, devices, devIndex, window, target, smooth)
				sameBits(t, fmt.Sprintf("%s, window %d, smooth %d, %s target, %s store", what, window, smooth, tname, sname), x, y, rows, ys)
			}
		}
	}
}

// TestTrainingSetMatchesReference: on randomized telemetry, TrainingSet
// builds, bit for bit, the rows and targets of the copy-concatenate-sort
// builder it replaced — with time ties across devices, repeated and
// single-record (device, file) groups, a device devIndex does not list and
// one with no records, every smoothing mode, the throughput, latency and
// raw targets, and each kind of store: a keep-all database, one under a
// retention horizon its windows have wrapped, and a store that only copies.
// Then on the shapes that load the merge and its file table hardest:
// windows whose times strictly descend (every row its own run), every
// access on a file of its own (the table at its fullest), 70 devices (the
// table reused 70 times) and −0 tying +0 across devices.
func TestTrainingSetMatchesReference(t *testing.T) {
	devIndex := map[string]int{"file0": 0, "pic": 1, "people": 2}
	devices := []string{"pic", "ghost", "file0", "absent", "people"}
	targets := trainingTargets()
	smooths := []int{0, 1, 3, 8, -1}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := randomTelemetry(rng, 150+rng.Intn(250))
		for _, window := range []int{1, 17, 60, 400} {
			matchesReference(t, fmt.Sprintf("seed %d", seed), recs, devices, devIndex, window, smooths, targets)
		}
	}

	rng := rand.New(rand.NewSource(7))
	descending := randomTelemetry(rng, 300)
	for i := range descending {
		descending[i].Time = float64(len(descending) - i)
	}
	ownFiles := randomTelemetry(rng, 400)
	for i := range ownFiles {
		ownFiles[i].FileID = int64(5000 + i)
	}
	many := randomTelemetry(rng, 1500)
	manyDevices := make([]string, 70)
	manyIndex := map[string]int{}
	for k := range manyDevices {
		manyDevices[k] = fmt.Sprintf("d%02d", (k*29)%70) // a permutation of d00…d69
		if k%3 != 0 {
			manyIndex[fmt.Sprintf("d%02d", k)] = len(manyIndex)
		}
	}
	for i := range many {
		many[i].Device = manyDevices[rng.Intn(len(manyDevices))]
	}
	zeros := randomTelemetry(rng, 300)
	for i := range zeros {
		zeros[i].Time = []float64{math.Copysign(0, -1), 0, -1, 0.5}[rng.Intn(4)]
	}
	for _, tc := range []struct {
		name     string
		recs     []replaydb.AccessRecord
		devices  []string
		devIndex map[string]int
	}{
		{"descending times", descending, devices, devIndex},
		{"a file per access", ownFiles, devices, devIndex},
		{"70 devices", many, manyDevices, manyIndex},
		{"−0 and +0 ties", zeros, devices, devIndex},
	} {
		for _, window := range []int{1, 7, 400} {
			matchesReference(t, tc.name, tc.recs, tc.devices, tc.devIndex, window, smooths, targets)
		}
	}
}

// FuzzTrainingSet: TrainingSet builds referenceTrainingRows's set bit for
// bit, over a keep-all database and one under a horizon, on telemetry
// decoded from the input. Its first byte picks the window, its second the
// smoothing mode, and each next three bytes one access: a device (three
// listed, one unlisted, one the walk never asks for), a time from a small
// alphabet with −0 and +0, a file from a small pool, and byte counts and a
// throughput from the same bits.
func FuzzTrainingSet(f *testing.F) {
	f.Add([]byte{16, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 3, 0, 1, 4, 1, 3, 5, 2})
	f.Add([]byte{2, 5, 0, 7, 1, 0, 6, 1, 0, 1, 1, 0, 0, 1, 9, 2, 0, 2, 3, 1, 1})
	f.Add([]byte{40, 2, 1, 1, 1, 1, 0, 1, 1, 7, 1, 1, 6, 1, 2, 5, 2, 2, 4, 2})
	devIndex := map[string]int{"file0": 0, "pic": 1, "people": 2}
	devices := []string{"pic", "ghost", "file0", "people"}
	pool := []string{"file0", "pic", "people", "ghost", "stray"}
	times := []float64{math.Copysign(0, -1), 0, 0.5, 1, 2, -1, 3, 1e9}
	targets := trainingTargets()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+3*512 {
			return
		}
		window := 1 + int(data[0]%64)
		smooth := []int{0, 1, 2, 3, 8, -1}[data[1]%6]
		var recs []replaydb.AccessRecord
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			dev, tm, file := int64(rest[0]), int64(rest[1]), int64(rest[2])
			recs = append(recs, replaydb.AccessRecord{
				Time:         times[tm%8],
				Device:       pool[dev%5],
				FileID:       file%8 - 2,
				BytesRead:    (dev>>3 + 1) << 20,
				BytesWritten: (file >> 3) << 10,
				OpenTS:       tm >> 3,
				CloseTS:      tm>>3 + file>>6,
				Throughput:   1e6 * float64(1+(dev^tm^file)),
			})
		}
		matchesReference(t, "fuzz", recs, devices, devIndex, window, []int{smooth}, targets)
	})
}

// TestTrainingSetSmoothsKnownAnswers pins the two smoothing modes to worked
// values, independently of any reference: one device, one file, targets
// 1…5 under the moving average over 3 accesses and 2, 4, 6 under the
// cumulative average. A second file's access interleaved in time is its
// own group and stays as it is.
func TestTrainingSetSmoothsKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		smooth    int
		in, want  []float64
		otherFile float64
	}{
		{smooth: 3, in: []float64{1, 2, 3, 4, 5}, want: []float64{1, 1.5, 2, 3, 4}, otherFile: 100},
		{smooth: -1, in: []float64{2, 4, 6}, want: []float64{2, 3, 4}, otherFile: 100},
	} {
		db, err := replaydb.Open(replaydb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tc.in {
			if _, err := db.AppendAccess(replaydb.AccessRecord{Time: float64(2 * i), Device: "pic", FileID: 1, Throughput: v}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.AppendAccess(replaydb.AccessRecord{Time: 1, Device: "pic", FileID: 2, Throughput: tc.otherFile}); err != nil {
			t.Fatal(err)
		}
		_, got := TrainingSet(db, []string{"pic"}, map[string]int{"pic": 0}, 10,
			func(rec *replaydb.AccessRecord) float64 { return rec.Throughput }, tc.smooth)
		want := append([]float64{tc.want[0], tc.otherFile}, tc.want[1:]...) // time order
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("smooth %d: targets %v, want %v", tc.smooth, got, want)
		}
		db.Close()
	}
}

// trainingAllocs returns what fn allocates, in objects: the least of three
// calls, since the runtime's own allocations land in the same counter.
func trainingAllocs(fn func()) int64 {
	least := int64(-1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if o := int64(after.Mallocs - before.Mallocs); least < 0 || o < least {
			least = o
		}
	}
	return least
}

// TestTrainingSetAllocations: building the training set of 6 devices ×
// 2000 accesses allocates a few objects — the matrix, its targets, the
// ordering keys, the device ends, the merge's run heap, the file table and
// the smoothing scratch — however long the window, and so
// does the whole fit around it, whose other allocations are nn.Fit's
// per-call scratch. A per-record slice, a copied window or a map of groups
// that slips back into the build multiplies the count by the window and
// fails here, on any machine.
func TestTrainingSetAllocations(t *testing.T) {
	db := seedDB(t, 15000) // about 2500 records per device
	cfg := Config{Epochs: 1, Seed: 5}
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := func(rec *replaydb.AccessRecord) float64 { return EncodeTarget(rec.Throughput) }
	build := func(window int) int64 {
		return trainingAllocs(func() { TrainingSet(db, testDevices, e.devIndex, window, target, 8) })
	}
	fit := func(window int) int64 {
		e.cfg.WindowX = window
		return trainingAllocs(func() {
			if _, err := e.TrainContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The fit's own objects are nn.Fit's scratch (about 50), the held-out
	// scoring and the report.
	const buildCeiling, fitCeiling, fitSlack = 12, 128, 8
	short, long := build(200), build(2000)
	t.Logf("TrainingSet: %d objects at window 200, %d at 2000", short, long)
	if long > buildCeiling || long > short {
		t.Errorf("TrainingSet of 6 × 2000 allocates %d objects (%d at 6 × 200), want at most %d and none more than the short window", long, short, buildCeiling)
	}
	shortFit, longFit := fit(200), fit(2000)
	t.Logf("fit: %d objects at window 200, %d at 2000", shortFit, longFit)
	if longFit > fitCeiling || longFit-shortFit > fitSlack {
		t.Errorf("a 6 × 2000 fit allocates %d objects, %d more than a 6 × 200 one; want at most %d, and at most %d more", longFit, longFit-shortFit, fitCeiling, fitSlack)
	}
}

// TestTrainingSetConcurrentAppend: fits walk the store's windows in place,
// under its read lock, while another goroutine keeps appending — to a
// keep-all database, and to one under the engine's own horizon, whose rings
// the appends overwrite. Run with -race: a walk that read a ring outside the lock, or a
// callback that kept a record past it, is a data race here. Every set stays
// within its window and finite.
func TestTrainingSetConcurrentAppend(t *testing.T) {
	const window = 300
	cfg := Config{Epochs: 1, WindowX: window, Seed: 6}
	for _, h := range []replaydb.Horizon{{}, ReplayHorizon(cfg)} {
		t.Run(fmt.Sprintf("horizon %+v", h), func(t *testing.T) {
			db, err := replaydb.Open(replaydb.Options{Horizon: h})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(4))
			appendOne := func(i int) {
				dev := testDevices[rng.Intn(len(testDevices))]
				if _, err := db.AppendAccess(replaydb.AccessRecord{
					Time: float64(i), FileID: int64(1 + rng.Intn(24)), Device: dev,
					BytesRead: 1e8, OpenTS: int64(i), CloseTS: int64(i + 1), Throughput: 1e9 * (1 + rng.Float64()),
				}); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 1200; i++ {
				appendOne(i)
			}
			e, err := NewEngine(db, testDevices, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1200; ; i++ {
					select {
					case <-stop:
						return
					default:
						appendOne(i)
					}
				}
			}()
			target := func(rec *replaydb.AccessRecord) float64 { return EncodeTarget(rec.Throughput) }
			for k := 0; k < 4; k++ {
				if _, err := e.TrainContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				x, y := TrainingSet(db, testDevices, e.devIndex, window, target, 8)
				if x.Rows > len(testDevices)*window || len(y) != x.Rows {
					t.Fatalf("%d rows and %d targets from %d windows of %d", x.Rows, len(y), len(testDevices), window)
				}
				for _, v := range append(x.Data[:x.Rows*x.Cols:x.Rows*x.Cols], y...) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("a concurrent walk produced %v", v)
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// trainingSink keeps BenchmarkTrainingSet's result live.
var trainingSink *mat.Matrix

// BenchmarkTrainingSet builds the paper's training set, 6 devices × 2000
// accesses smoothed over 8, from a keep-all database.
func BenchmarkTrainingSet(b *testing.B) {
	db := seedDB(b, 15000) // about 2500 records per device
	devIndex := make(map[string]int, len(testDevices))
	for i, d := range testDevices {
		devIndex[d] = i
	}
	target := func(rec *replaydb.AccessRecord) float64 { return EncodeTarget(rec.Throughput) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainingSink, _ = TrainingSet(db, testDevices, devIndex, 2000, target, 8)
	}
}
