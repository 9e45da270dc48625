package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"geomancy/internal/replaydb"
)

// testWAL writes twelve accesses over two devices and one movement.
func testWAL(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "replay.wal")
	db, err := replaydb.Open(replaydb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		rec := replaydb.AccessRecord{Time: float64(i), FileID: int64(i%3 + 1), Device: []string{"file0", "pic"}[i%2], BytesRead: 1e6, Throughput: 2e9}
		if _, err := db.AppendAccess(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AppendMovement(replaydb.MovementRecord{Time: 12, FileID: 2, From: "pic", To: "file0", Bytes: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// lines runs the command and returns its standard output by line.
func lines(t *testing.T, args ...string) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("replaydb %v: exit %d: %s", args, code, stderr.String())
	}
	return strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
}

func TestStats(t *testing.T) {
	out := lines(t, "-db", testWAL(t), "stats")
	if len(out) != 4 || !strings.HasSuffix(out[0], " 12") || !strings.HasSuffix(out[1], " 1") {
		t.Fatalf("stats = %q, want 12 accesses, 1 movement and two device rows", out)
	}
	if !strings.Contains(out[2], "file0") || !strings.Contains(out[2], "6 accesses") || !strings.Contains(out[3], "pic") {
		t.Errorf("device rows = %q", out[2:])
	}
}

// The documented spelling puts -n after the sub-command, where the
// package-level flag.Parse never looked: the count was always 10.
func TestTailCount(t *testing.T) {
	path := testWAL(t)
	out := lines(t, "-db", path, "tail", "-n", "3")
	if len(out) != 3 || !strings.HasPrefix(out[0], "#10 ") || !strings.HasPrefix(out[2], "#12 ") {
		t.Errorf("tail -n 3 = %q, want records 10..12", out)
	}
	if out := lines(t, "-db", path, "tail"); len(out) != 10 {
		t.Errorf("tail printed %d records, want the default 10", len(out))
	}
	if out := lines(t, "-db", path, "-n", "2", "tail"); len(out) != 2 {
		t.Errorf("-n 2 tail printed %d records, want 2", len(out))
	}
}

func TestMovements(t *testing.T) {
	out := lines(t, "-db", testWAL(t), "movements")
	if len(out) != 1 || !strings.Contains(out[0], "file=2 pic -> file0") {
		t.Errorf("movements = %q", out)
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stats"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-db is required") {
		t.Errorf("no -db: exit %d, stderr %q", code, stderr.String())
	}
	if code := run([]string{"-db", testWAL(t), "compact"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
}
