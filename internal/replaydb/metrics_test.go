package replaydb

import (
	"testing"

	"geomancy/internal/telemetry"
)

func TestInsertAndQueryCounters(t *testing.T) {
	db := memDB(t)
	reg := telemetry.NewRegistry()
	db.SetMetrics(reg)

	for i := 0; i < 10; i++ {
		if _, err := db.AppendAccess(sampleAccess(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AppendMovement(MovementRecord{FileID: 1, From: "pic", To: "file0"}); err != nil {
		t.Fatal(err)
	}
	db.Recent(5)
	db.RecentByDevice("pic", 5)
	db.RecentByFile(1, 5)
	db.FilesChangedSince(0)

	if got := reg.Counter(telemetry.MetricReplayAccessInserts).Value(); got != 10 {
		t.Errorf("access inserts = %d, want 10", got)
	}
	if got := reg.Counter(telemetry.MetricReplayMovementInserts).Value(); got != 1 {
		t.Errorf("movement inserts = %d, want 1", got)
	}
	if got := reg.Counter(telemetry.MetricReplayQueriesTotal).Value(); got != 4 {
		t.Errorf("queries = %d, want 4", got)
	}
}

// A WAL reopen replays frames without counting them as live inserts.
func TestReplayedFramesNotCounted(t *testing.T) {
	path := t.TempDir() + "/replay.wal"
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.AppendAccess(sampleAccess(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reg := telemetry.NewRegistry()
	db2.SetMetrics(reg)
	if db2.Len() != 4 {
		t.Fatalf("replay lost records: %d", db2.Len())
	}
	if got := reg.Counter(telemetry.MetricReplayAccessInserts).Value(); got != 0 {
		t.Errorf("replayed frames counted as inserts: %d", got)
	}
	if _, err := db2.AppendAccess(sampleAccess(9)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.MetricReplayAccessInserts).Value(); got != 1 {
		t.Errorf("live insert count = %d, want 1", got)
	}
}
