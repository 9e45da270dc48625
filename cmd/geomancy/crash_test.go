package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"geomancy"
	"geomancy/internal/replaydb"
)

// TestMain lets the crash-safety test re-exec this test binary as the
// real geomancy command: with the environment marker set, the process
// runs main() instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("GEOMANCY_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestCrashSafetySIGKILL is the crash-recovery acceptance test: a
// deployment running with -checkpoint-dir and a WAL-backed ReplayDB is
// killed with SIGKILL (no signal handler, no graceful snapshot — the
// WAL may be torn mid-frame), then restored from the newest intact
// snapshot plus the WAL tail. The restored system must resume cleanly,
// and the replay log must hold every record exactly once: sequence
// numbers contiguous from 1 with no gaps (lost records) and no
// duplicates (double-applied tail).
func TestCrashSafetySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child process")
	}
	dir := t.TempDir()
	wal := filepath.Join(dir, "replay.wal")
	ckptDir := filepath.Join(dir, "ckpt")

	args := []string{
		"-runs", "10000", // far more than the child will live to finish
		"-seed", "11", "-cooldown", "2", "-bootstrap", "2",
		"-epochs", "4", "-window", "300", "-parallel", "2",
		"-db", wal, "-checkpoint-dir", ckptDir, "-checkpoint-every", "2",
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GEOMANCY_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until at least two snapshots exist, so the kill lands well past
	// the first checkpoint and the WAL has a tail beyond the watermark.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if n, _ := filepath.Glob(filepath.Join(ckptDir, "snap-*.ckpt")); len(n) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshots after 60s; child output:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond) // let the WAL grow past the snapshot
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child did not die by SIGKILL: %v\n%s", err, out.String())
	}

	// Restore with the same configuration the child ran under.
	opts := []geomancy.Option{
		geomancy.WithDistributed(),
		geomancy.WithSeed(11),
		geomancy.WithCooldown(2),
		geomancy.WithBootstrapRuns(2),
		geomancy.WithEpochs(4),
		geomancy.WithTrainingWindow(300),
		geomancy.WithParallelism(2),
		geomancy.WithReplayDB(wal),
		geomancy.WithCheckpointDir(ckptDir),
	}
	sys, err := geomancy.RestoreLatest(ckptDir, opts...)
	if err != nil {
		t.Fatalf("restoring after SIGKILL: %v\nchild output:\n%s", err, out.String())
	}
	resumedAt := len(sys.Stats())
	if resumedAt < 2 {
		t.Errorf("resumed at %d runs, want >= 2 (snapshot cadence)", resumedAt)
	}
	if _, err := sys.RunN(3); err != nil {
		t.Fatalf("running after restore: %v", err)
	}
	if got := len(sys.Stats()); got != resumedAt+3 {
		t.Errorf("resumed system completed %d runs, want %d", got, resumedAt+3)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Integrity: reopen the WAL raw and audit the sequence numbers.
	db, err := replaydb.Open(replaydb.Options{Path: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var seqs []uint64
	for _, rec := range db.All() {
		seqs = append(seqs, rec.Seq)
	}
	for _, mv := range db.Movements() {
		seqs = append(seqs, mv.Seq)
	}
	if len(seqs) == 0 {
		t.Fatal("replay log is empty after crash + resume")
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, s := range seqs {
		if want := uint64(i + 1); s != want {
			t.Fatalf("sequence %d at position %d (want %d): records were %s across the crash",
				s, i, want, map[bool]string{true: "lost", false: "duplicated"}[s > want])
		}
	}
}

// TestUnknownTargetIsUsageError: a misspelled -target must stop the
// command with a usage error instead of silently running the throughput
// model.
func TestUnknownTargetIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-target", "latncy", "-runs", "1")
	cmd.Env = append(os.Environ(), "GEOMANCY_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-target latncy: %v, want exit status 2\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `-target must be throughput or latency, not "latncy"`) {
		t.Errorf("output does not name the bad -target value:\n%s", out.String())
	}
}

// TestNegativeParallelIsUsageError: a negative -parallel stops the command
// with a usage error naming the flag, as the facade refuses
// WithParallelism(-3), instead of silently running at GOMAXPROCS.
func TestNegativeParallelIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-parallel", "-3", "-runs", "1")
	cmd.Env = append(os.Environ(), "GEOMANCY_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-parallel -3: %v, want exit status 2\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "-parallel must be 0 (GOMAXPROCS) or more, not -3") {
		t.Errorf("output does not name the bad -parallel value:\n%s", out.String())
	}
}
