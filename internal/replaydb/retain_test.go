package replaydb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testHorizon is small enough that a few hundred appends pass it many
// times over on every device and file.
var testHorizon = Horizon{PerDevice: 6, PerFile: 3}

var (
	retainDevices = []string{"file0", "pic", "people", "tmp"}
	retainFiles   = 12
)

// pair is one keep-all database and one horizon database fed the same
// stream, and the stream itself: every record appended, as the keep-all
// database must hold them.
type pair struct {
	keep, bound *DB
	accesses    []AccessRecord
	movements   []MovementRecord
}

func (p *pair) open(t *testing.T, keepPath, boundPath string) {
	t.Helper()
	var err error
	if p.keep, err = Open(Options{Path: keepPath}); err != nil {
		t.Fatal(err)
	}
	if p.bound, err = Open(Options{Path: boundPath, Horizon: testHorizon}); err != nil {
		t.Fatal(err)
	}
}

func (p *pair) close(t *testing.T) {
	t.Helper()
	if err := p.keep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.bound.Close(); err != nil {
		t.Fatal(err)
	}
}

// feed appends n random records to both databases: accesses spread over
// the devices and files, with a movement record one time in eight.
func (p *pair) feed(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			m := MovementRecord{FileID: int64(1 + rng.Intn(retainFiles)), From: "pic", To: "tmp", Bytes: rng.Int63n(1 << 30)}
			kept, err := p.keep.AppendMovement(m)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := p.bound.AppendMovement(m); err != nil || got != kept {
				t.Fatalf("movement appended as %+v (err %v) under the horizon, %+v keeping everything", got, err, kept)
			}
			p.movements = append(p.movements, kept)
			continue
		}
		rec := AccessRecord{
			Time:       float64(i),
			FileID:     int64(1 + rng.Intn(retainFiles)),
			Device:     retainDevices[rng.Intn(len(retainDevices))],
			BytesRead:  rng.Int63n(1 << 20),
			Throughput: rng.Float64() * 1e9,
		}
		kept, err := p.keep.AppendAccess(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := p.bound.AppendAccess(rec); err != nil || got != kept {
			t.Fatalf("access appended as %+v (err %v) under the horizon, %+v keeping everything", got, err, kept)
		}
		p.accesses = append(p.accesses, kept)
	}
}

// truncate is TruncateTo(seq) on both databases and the stream.
func (p *pair) truncate(t *testing.T, seq uint64) {
	t.Helper()
	for _, db := range []*DB{p.keep, p.bound} {
		if err := db.TruncateTo(seq); err != nil {
			t.Fatal(err)
		}
	}
	p.accesses = slices.DeleteFunc(p.accesses, func(r AccessRecord) bool { return r.Seq > seq })
	p.movements = slices.DeleteFunc(p.movements, func(m MovementRecord) bool { return m.Seq > seq })
}

// check holds the keep-all database to the stream and the horizon one to
// the keep-all one (sameAnswers); every record the horizon database
// retains is the stream's record of that sequence number.
func (p *pair) check(t *testing.T, rng *rand.Rand, when string) {
	t.Helper()
	if got := p.keep.All(); !reflect.DeepEqual(got, p.accesses) && len(got)+len(p.accesses) > 0 {
		t.Fatalf("%s: the keep-all database holds %d access records, %d were appended", when, len(got), len(p.accesses))
	}
	if got := p.keep.Movements(); !reflect.DeepEqual(got, p.movements) && len(got)+len(p.movements) > 0 {
		t.Fatalf("%s: the keep-all database holds %d movement records, %d were appended", when, len(got), len(p.movements))
	}
	bySeq := make(map[uint64]AccessRecord, len(p.accesses))
	for _, r := range p.accesses {
		bySeq[r.Seq] = r
	}
	for _, r := range p.bound.All() {
		if bySeq[r.Seq] != r {
			t.Fatalf("%s: the horizon database retains %+v, the stream appended %+v", when, r, bySeq[r.Seq])
		}
	}
	sameAnswers(t, rng, p.keep, p.bound, when)
}

// sameAnswers asks both databases every in-horizon query — every window
// length on every device and file, known or not, and the dirty set at
// random watermarks — and fails on the first difference.
func sameAnswers(t *testing.T, rng *rand.Rand, keep, bound *DB, when string) {
	t.Helper()
	diff := func(query string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s = %v under the horizon, %v keeping everything", when, query, got, want)
		}
	}
	diff("Len", bound.Len(), keep.Len())
	diff("Watermark", bound.Watermark(), keep.Watermark())
	for _, dev := range append([]string{"unseen"}, retainDevices...) {
		for n := 0; n <= testHorizon.PerDevice; n++ {
			diff(fmt.Sprintf("RecentByDevice(%s, %d)", dev, n), bound.RecentByDevice(dev, n), keep.RecentByDevice(dev, n))
			diff(fmt.Sprintf("MeanThroughputByDevice(%s, %d)", dev, n), bound.MeanThroughputByDevice(dev, n), keep.MeanThroughputByDevice(dev, n))
		}
	}
	for id := int64(0); id <= int64(retainFiles); id++ {
		for n := 0; n <= testHorizon.PerFile; n++ {
			diff(fmt.Sprintf("RecentByFile(%d, %d)", id, n), bound.RecentByFile(id, n), keep.RecentByFile(id, n))
		}
		diff(fmt.Sprintf("FileLastSeq(%d)", id), bound.FileLastSeq(id), keep.FileLastSeq(id))
	}
	marks := []uint64{0, keep.Watermark(), keep.Watermark() + 1}
	for i := 0; i < 8; i++ {
		marks = append(marks, uint64(rng.Int63n(int64(keep.Watermark())+2)))
	}
	for _, seq := range marks {
		diff(fmt.Sprintf("FilesChangedSince(%d)", seq), bound.FilesChangedSince(seq), keep.FilesChangedSince(seq))
	}
}

// TestRetentionMatchesKeepAll drives randomized streams through a horizon
// database and a keep-all one side by side, well past the horizon, and
// requires identical answers to every in-horizon query: while appending,
// after closing and reopening the WAL, after TruncateTo at a random
// sequence number, and after restoring each from a Bulkload of what it
// exports — then again after more appends on top of each.
func TestRetentionMatchesKeepAll(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			keepPath, boundPath := filepath.Join(dir, "keep.wal"), filepath.Join(dir, "bound.wal")

			var p pair
			p.open(t, keepPath, boundPath)
			for step := 0; step < 6; step++ {
				p.feed(t, rng, 50)
				p.check(t, rng, fmt.Sprintf("after %d appends", 50*(step+1)))
			}
			p.close(t)

			p.open(t, keepPath, boundPath)
			p.check(t, rng, "after reopening the WAL")
			p.feed(t, rng, 40)
			p.check(t, rng, "after appends on a reopened WAL")
			p.close(t)

			p.open(t, keepPath, boundPath)
			// Half the seeds cut just in front of a movement record, so the
			// frame replay must stop at is not an access.
			cut := uint64(1 + rng.Int63n(int64(p.keep.Watermark())))
			if seed%2 == 0 {
				cut = p.movements[rng.Intn(len(p.movements))].Seq - 1
			}
			p.truncate(t, cut)
			p.check(t, rng, fmt.Sprintf("after TruncateTo(%d)", cut))
			p.feed(t, rng, 40)
			p.check(t, rng, "after appends on a truncated WAL")
			p.close(t)
			p.open(t, keepPath, boundPath)
			p.check(t, rng, "after reopening a truncated WAL")

			// A Bulkload restores access records only: movement records
			// stay in the WAL.
			restored := pair{keep: memBulk(t, p.keep, Horizon{}), bound: memBulk(t, p.bound, testHorizon), accesses: p.accesses}
			p.close(t)
			restored.check(t, rng, "after Bulkload")
			restored.feed(t, rng, 40)
			restored.check(t, rng, "after appends on a Bulkload")
			restored.close(t)
		})
	}
}

// memBulk restores a memory database with horizon h from src's export —
// its retained records, its count and its watermark, as a memory-backed
// snapshot carries them.
func memBulk(t *testing.T, src *DB, h Horizon) *DB {
	t.Helper()
	db, err := Open(Options{Horizon: h})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Bulkload(src.All(), src.Len(), src.Watermark()); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRetentionPanicsPastHorizon: a query for more records than a full
// ring keeps, and every query that needs the whole log, panics with a
// message naming the horizon; a device or file that has not filled its
// ring still answers a longer query with everything it has.
func TestRetentionPanicsPastHorizon(t *testing.T) {
	db, err := Open(Options{Horizon: Horizon{PerDevice: 4, PerFile: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		if _, err := db.AppendAccess(AccessRecord{Device: "pic", FileID: 1, Throughput: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AppendAccess(AccessRecord{Device: "tmp", FileID: 2, Throughput: 1}); err != nil {
		t.Fatal(err)
	}
	if got := len(db.RecentByDevice("tmp", 50)); got != 1 {
		t.Errorf("RecentByDevice on a ring with room: %d records, want 1", got)
	}
	if got := len(db.RecentByFile(2, 50)); got != 1 {
		t.Errorf("RecentByFile on a ring with room: %d records, want 1", got)
	}
	for query, call := range map[string]func(){
		"RecentByDevice": func() { db.RecentByDevice("pic", 5) },
		"EachRecentByDevice": func() {
			db.EachRecentByDevice("pic", 5, func(*AccessRecord) { t.Error("EachRecentByDevice walked past the horizon") })
		},
		"MeanThroughputByDevice": func() { db.MeanThroughputByDevice("pic", 5) },
		"RecentByFile":           func() { db.RecentByFile(1, 3) },
		"EachRecentByFile": func() {
			db.EachRecentByFile(1, 3, func(*AccessRecord) { t.Error("EachRecentByFile walked past the horizon") })
		},
		"Recent":        func() { db.Recent(1) },
		"Summary":       func() { db.Summary() },
		"Movements":     func() { db.Movements() },
		"MovementCount": func() { db.MovementCount() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "horizon") {
					t.Errorf("%s past the horizon: recovered %q, want a panic naming the horizon", query, msg)
				}
			}()
			call()
		}()
	}
	// The panics left the lock released: the database still serves.
	if got := len(db.RecentByDevice("pic", 4)); got != 4 {
		t.Errorf("RecentByDevice after the panics: %d records, want 4", got)
	}
}

// TestRetentionBoundsMemory: after ten times the horizon of appends, the
// database holds at most devices × PerDevice + files × PerFile records, in
// rings of fixed capacity and no log, and appending allocates nothing.
func TestRetentionBoundsMemory(t *testing.T) {
	const devices, files = 5, 20
	h := Horizon{PerDevice: 8, PerFile: 3}
	db, err := Open(Options{Horizon: h})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bound := devices*h.PerDevice + files*h.PerFile
	rng := rand.New(rand.NewSource(9))
	record := func() AccessRecord {
		return AccessRecord{Device: fmt.Sprint("dev", rng.Intn(devices)), FileID: int64(1 + rng.Intn(files)), Throughput: rng.Float64()}
	}
	for i := 0; i < 10*bound; i++ {
		if _, err := db.AppendAccess(record()); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Len(); got != 10*bound {
		t.Errorf("Len = %d, want every append counted (%d)", got, 10*bound)
	}
	if got := len(db.All()); got > bound {
		t.Errorf("%d records retained, want at most %d", got, bound)
	}
	if db.accesses.n != 0 {
		t.Errorf("the global log holds %d records under a horizon", db.accesses.n)
	}
	for dev, s := range db.byDevice {
		if cap(s.ring) != h.PerDevice {
			t.Errorf("device %s ring capacity %d, want %d", dev, cap(s.ring), h.PerDevice)
		}
	}
	for id, s := range db.byFile {
		if cap(s.ring) != h.PerFile {
			t.Errorf("file %d ring capacity %d, want %d", id, cap(s.ring), h.PerFile)
		}
	}
	rec := record()
	if allocs := testing.AllocsPerRun(200, func() { db.AppendAccess(rec) }); allocs != 0 {
		t.Errorf("an append on a seen device and file allocates %.1f objects, want 0", allocs)
	}
}

// TestOpenRejectsHalfAHorizon: a horizon bounds devices and files together.
func TestOpenRejectsHalfAHorizon(t *testing.T) {
	for _, h := range []Horizon{{PerDevice: 4}, {PerFile: 4}, {PerDevice: -1, PerFile: 2}} {
		if db, err := Open(Options{Horizon: h}); err == nil {
			db.Close()
			t.Errorf("Open accepted horizon %+v", h)
		}
	}
}

// TestBulkloadRejectsInconsistentExports: records out of sequence order or
// past the watermark, or more of them than the count, are refused whole.
func TestBulkloadRejectsInconsistentExports(t *testing.T) {
	recs := []AccessRecord{{Seq: 2, Device: "pic", FileID: 1}, {Seq: 5, Device: "pic", FileID: 1}}
	for name, load := range map[string]func(db *DB) error{
		"out of order":       func(db *DB) error { return db.Bulkload([]AccessRecord{recs[1], recs[0]}, 2, 9) },
		"past the watermark": func(db *DB) error { return db.Bulkload(recs, 2, 4) },
		"over the count":     func(db *DB) error { return db.Bulkload(recs, 1, 9) },
	} {
		db := memDB(t)
		if err := load(db); err == nil {
			t.Errorf("%s: Bulkload accepted it", name)
		}
		if db.Len() != 0 || db.Watermark() != 0 {
			t.Errorf("%s: a refused Bulkload left %d records, watermark %d", name, db.Len(), db.Watermark())
		}
	}
	db := memDB(t)
	if err := db.Bulkload(recs, 7, 9); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 7 || db.Watermark() != 9 {
		t.Errorf("Bulkload restored Len %d, watermark %d; want 7 and 9", db.Len(), db.Watermark())
	}
	if rec, err := db.AppendAccess(AccessRecord{Device: "pic", FileID: 1}); err != nil || rec.Seq != 10 {
		t.Errorf("append after Bulkload: seq %d, err %v; want 10", rec.Seq, err)
	}
}
