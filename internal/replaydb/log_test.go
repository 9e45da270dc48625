package replaydb

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestLogAcrossChunks drives every reader of the access log over a
// database whose records span several chunks, against the same queries
// answered from a plain slice of what was appended.
func TestLogAcrossChunks(t *testing.T) {
	db := memDB(t)
	const n = 2*logChunk + 5
	var want []AccessRecord
	for i := 0; i < n; i++ {
		rec, err := db.AppendAccess(sampleAccess(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	if got := db.All(); !reflect.DeepEqual(got, want) {
		t.Fatal("All differs from what was appended")
	}
	for _, k := range []int{0, 1, 5, 6, logChunk, logChunk + 5, logChunk + 6, n, n + 1} {
		from := n - k
		if from < 0 {
			from = 0
		}
		if got := db.Recent(k); len(got) != n-from || (k > 0 && !reflect.DeepEqual(got, want[from:])) {
			t.Errorf("Recent(%d): %d records, want the last %d", k, len(got), n-from)
		}
	}
	var onPic, ofFile3 []AccessRecord
	for _, r := range want {
		if r.Device == "pic" {
			onPic = append(onPic, r)
		}
		if r.FileID == 3 {
			ofFile3 = append(ofFile3, r)
		}
	}
	if got := db.RecentByDevice("pic", n); !reflect.DeepEqual(got, onPic) {
		t.Error("RecentByDevice differs across chunks")
	}
	if got := db.RecentByFile(3, n); !reflect.DeepEqual(got, ofFile3) {
		t.Error("RecentByFile differs across chunks")
	}
	// Seq is position+1 here: everything after the first chunk's last
	// record touches all five files, the last record alone touches one.
	if got := db.FilesChangedSince(uint64(logChunk)); len(got) != 5 {
		t.Errorf("FilesChangedSince(first chunk) = %v, want all 5 files", got)
	}
	if got := db.FilesChangedSince(uint64(n - 1)); !reflect.DeepEqual(got, []int64{want[n-1].FileID}) {
		t.Errorf("FilesChangedSince(n-1) = %v", got)
	}
	if got := db.FileLastSeq(want[n-1].FileID); got != uint64(n) {
		t.Errorf("FileLastSeq = %d, want %d", got, n)
	}
}

// TestTruncateAcrossChunks cuts a replayed log back to a sequence number
// in an earlier chunk: the kept head ends mid-chunk and the per-device
// index is rebuilt over it.
func TestTruncateAcrossChunks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var accesses []AccessRecord
	for i := 0; i < 2*logChunk+5; i++ {
		rec, err := db.AppendAccess(sampleAccess(i))
		if err != nil {
			t.Fatal(err)
		}
		accesses = append(accesses, rec)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cut := logChunk + 3
	if err := db.TruncateTo(uint64(cut)); err != nil {
		t.Fatal(err)
	}
	if got := db.All(); !reflect.DeepEqual(got, accesses[:cut]) {
		t.Fatalf("TruncateTo kept %d records, want the first %d", len(got), cut)
	}
	var onPic []AccessRecord
	for _, r := range accesses[:cut] {
		if r.Device == "pic" {
			onPic = append(onPic, r)
		}
	}
	if got := db.RecentByDevice("pic", 3); !reflect.DeepEqual(got, onPic[len(onPic)-3:]) {
		t.Error("RecentByDevice differs after TruncateTo")
	}
	if rec, err := db.AppendAccess(sampleAccess(0)); err != nil || rec.Seq != uint64(cut+1) {
		t.Errorf("append after truncate: seq %d, err %v; want %d", rec.Seq, err, cut+1)
	}
}
