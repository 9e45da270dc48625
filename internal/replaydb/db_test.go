package replaydb

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func memDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func sampleAccess(i int) AccessRecord {
	devices := []string{"file0", "pic", "people", "tmp", "var", "USBtmp"}
	return AccessRecord{
		Time:       float64(i),
		Workload:   1,
		Run:        int32(i / 10),
		FileID:     int64(i%5 + 1),
		Path:       "/belle2/mc/run00/sim00.root",
		Device:     devices[i%len(devices)],
		BytesRead:  int64(1000 * (i + 1)),
		OpenTS:     int64(i),
		CloseTS:    int64(i + 1),
		Throughput: float64(1000 * (i + 1)),
	}
}

func TestAppendAssignsSequence(t *testing.T) {
	db := memDB(t)
	a, err := db.AppendAccess(sampleAccess(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.AppendAccess(sampleAccess(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Seq != 1 || b.Seq != 2 {
		t.Errorf("seqs = %d,%d; want 1,2", a.Seq, b.Seq)
	}
	m, err := db.AppendMovement(MovementRecord{FileID: 1, From: "pic", To: "file0"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 3 {
		t.Errorf("movement seq = %d, want 3", m.Seq)
	}
}

func TestRecentQueries(t *testing.T) {
	db := memDB(t)
	for i := 0; i < 60; i++ {
		if _, err := db.AppendAccess(sampleAccess(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 60 {
		t.Fatalf("Len = %d, want 60", db.Len())
	}

	// file0 hosts accesses 0, 6, 12, ... (10 of them).
	recs := db.RecentByDevice("file0", 3)
	if len(recs) != 3 {
		t.Fatalf("RecentByDevice returned %d, want 3", len(recs))
	}
	// Oldest first, and the newest is access 54.
	if recs[2].Time != 54 || recs[0].Time != 42 {
		t.Errorf("RecentByDevice times = %v, %v; want 42, 54", recs[0].Time, recs[2].Time)
	}

	byFile := db.RecentByFile(1, 100)
	if len(byFile) != 12 {
		t.Errorf("RecentByFile(1) = %d records, want 12", len(byFile))
	}
	for i := 1; i < len(byFile); i++ {
		if byFile[i].Time < byFile[i-1].Time {
			t.Fatal("RecentByFile not in time order")
		}
	}

	recent := db.Recent(5)
	if len(recent) != 5 || recent[4].Time != 59 {
		t.Errorf("Recent(5) wrong: len %d, last %v", len(recent), recent[len(recent)-1].Time)
	}

	if got := db.RecentByDevice("nonexistent", 5); len(got) != 0 {
		t.Errorf("unknown device returned %d records", len(got))
	}
	if got := db.RecentByDevice("file0", 0); got != nil {
		t.Error("n=0 should return nil")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var want []AccessRecord
	for i := 0; i < 25; i++ {
		rec, err := db.AppendAccess(sampleAccess(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	mv, err := db.AppendMovement(MovementRecord{Time: 9, FileID: 3, From: "pic", To: "file0", Bytes: 1 << 20, Duration: 0.5, AccessIndex: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := db2.All()
	if len(got) != len(want) {
		t.Fatalf("reloaded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, got[i], want[i])
		}
	}
	mvs := db2.Movements()
	if len(mvs) != 1 || mvs[0] != mv {
		t.Fatalf("movement not recovered: %+v", mvs)
	}
	// Sequence numbering continues after reload.
	next, err := db2.AppendAccess(sampleAccess(99))
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != mv.Seq+1 {
		t.Errorf("continued seq = %d, want %d", next.Seq, mv.Seq+1)
	}
	// Indexes rebuilt.
	if len(db2.RecentByFile(3, 100)) == 0 {
		t.Error("per-file index not rebuilt after reload")
	}
}

func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.wal")
	db, err := Open(Options{Path: path, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.AppendAccess(sampleAccess(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the tail.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()
	if got := db2.Len(); got != 9 {
		t.Errorf("after torn tail Len = %d, want 9 (last record dropped)", got)
	}
	// Database remains writable after recovery.
	if _, err := db2.AppendAccess(sampleAccess(100)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := db3.Len(); got != 10 {
		t.Errorf("after recovery+append Len = %d, want 10", got)
	}
}

func TestCorruptFrameRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		db.AppendAccess(sampleAccess(i))
	}
	db.Close()

	// Flip a byte in the last frame's payload: CRC must reject it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()
	if got := db2.Len(); got != 4 {
		t.Errorf("after corrupt frame Len = %d, want 4", got)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notdb.wal")
	if err := os.WriteFile(path, []byte("definitely not a WAL file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); err == nil {
		t.Error("Open of non-WAL file should error")
	}
}

func TestClosedRejectsWrites(t *testing.T) {
	db := memDB(t)
	db.Close()
	if _, err := db.AppendAccess(sampleAccess(0)); err == nil {
		t.Error("append after Close should error")
	}
	if _, err := db.AppendMovement(MovementRecord{}); err == nil {
		t.Error("movement after Close should error")
	}
	if err := db.Sync(); err == nil {
		t.Error("Sync after Close should error")
	}
	if err := db.Close(); err != nil {
		t.Errorf("double Close should be nil, got %v", err)
	}
}

func TestConcurrentAppendsAndReads(t *testing.T) {
	db := memDB(t)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				db.AppendAccess(sampleAccess(g*200 + i))
				db.RecentByDevice("file0", 10)
				db.Recent(5)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if db.Len() != 800 {
		t.Errorf("Len = %d, want 800", db.Len())
	}
	// Sequence numbers unique and dense.
	seen := make(map[uint64]bool)
	for _, r := range db.All() {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// Property: for any append sequence, RecentByDevice(dev, n) returns the
// suffix of that device's accesses in order.
func TestRecentByDeviceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := Open(Options{})
		defer db.Close()
		devices := []string{"a", "b", "c"}
		var perDev = map[string][]float64{}
		total := 20 + rng.Intn(80)
		for i := 0; i < total; i++ {
			d := devices[rng.Intn(3)]
			rec := AccessRecord{Time: float64(i), Device: d, FileID: 1}
			db.AppendAccess(rec)
			perDev[d] = append(perDev[d], rec.Time)
		}
		for _, d := range devices {
			n := 1 + rng.Intn(10)
			got := db.RecentByDevice(d, n)
			want := perDev[d]
			if len(want) > n {
				want = want[len(want)-n:]
			}
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i].Time != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeAccessRoundTrip(t *testing.T) {
	rec := AccessRecord{
		Seq: 42, Time: 123.456, Workload: -2, Run: 7, FileID: 9,
		Path: "/a/b/c.root", Device: "pic",
		BytesRead: 1 << 40, BytesWritten: 12345,
		OpenTS: 1600000000, OpenTMS: 999, CloseTS: 1600000001, CloseTMS: 1,
		Throughput: 7.61e9,
	}
	var dec Decoder
	dec.Reset(AppendAccessRecord(nil, &rec))
	got := dec.Access()
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Errorf("round trip changed record:\n  %+v\n  %+v", rec, got)
	}
}

func TestDecodeAccessTruncated(t *testing.T) {
	rec := AccessRecord{Path: "/x", Device: "d"}
	payload := AppendAccessRecord(nil, &rec)
	var dec Decoder
	for name, b := range map[string][]byte{"truncated": payload[:len(payload)-3], "empty": nil, "trailing": append(payload, 0)} {
		dec.Reset(b)
		dec.Access()
		if err := dec.Done(); !errors.Is(err, ErrRecord) {
			t.Errorf("%s payload: err = %v, want ErrRecord", name, err)
		}
	}
}

func TestEncodeDecodeMovementRoundTrip(t *testing.T) {
	m := MovementRecord{Seq: 3, Time: 55.5, FileID: 8, From: "pic", To: "file0", Bytes: 999, Duration: 1.25, AccessIndex: 4242}
	var dec Decoder
	dec.Reset(AppendMovementRecord(nil, &m))
	got := dec.Movement()
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip changed movement:\n  %+v\n  %+v", m, got)
	}
	dec.Reset([]byte{1, 2})
	dec.Movement()
	if err := dec.Done(); !errors.Is(err, ErrRecord) {
		t.Errorf("truncated movement: err = %v, want ErrRecord", err)
	}
}

func TestSyncEveryFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	db, err := Open(Options{Path: path, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.AppendAccess(sampleAccess(0))
	db.AppendAccess(sampleAccess(1)) // triggers sync
	// Without closing, a second handle must see both records.
	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Len(); got != 2 {
		t.Errorf("after SyncEvery flush, reader sees %d records, want 2", got)
	}
	db2.Close()
	db.Close()
}
