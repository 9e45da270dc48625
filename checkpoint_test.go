package geomancy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"geomancy/internal/checkpoint"
	"geomancy/internal/core"
)

// ckptOptions is the configuration shared by every leg of the resume
// tests: small enough to be fast, with cooldown/bootstrap tuned so the
// run window crosses several training and layout decisions.
func ckptOptions(parallelism int, extra ...Option) []Option {
	opts := []Option{
		WithSeed(11),
		WithParallelism(parallelism),
		WithEpochs(4),
		WithTrainingWindow(300),
		WithCooldown(2),
		WithBootstrapRuns(2),
	}
	return append(opts, extra...)
}

// trajectory captures everything the resume-equivalence assertions
// compare: the layout, per-run stats, movement history, train log and
// replay-DB record counts.
type trajectory struct {
	Layout    map[int64]string
	Stats     []RunStats
	Movements []MovementEvent
	Train     [][3]uint64
	Telemetry int
	MoveCount int
	Mean      float64
}

// trainBits reduces the train log to what must replay: every report's
// sample count, final loss and validation MARE, the floats as their bit
// patterns. (Duration is wall-clock.)
func trainBits(sys *System) [][3]uint64 {
	var out [][3]uint64
	for _, r := range sys.TrainLog() {
		out = append(out, [3]uint64{uint64(r.Samples), math.Float64bits(r.FinalLoss), math.Float64bits(r.Validation.MARE)})
	}
	return out
}

func capture(t *testing.T, sys *System) trajectory {
	t.Helper()
	return trajectory{
		Layout:    sys.Layout(),
		Stats:     sys.Stats(),
		Movements: sys.Movements(),
		Train:     trainBits(sys),
		Telemetry: sys.Telemetry(),
		MoveCount: len(sys.Movements()),
		Mean:      sys.MeanThroughput(),
	}
}

func assertSameTrajectory(t *testing.T, got, want trajectory, label string) {
	t.Helper()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("%s: trajectories diverged\n  got:  %s\n  want: %s", label, gj, wj)
	}
}

// TestResumeEquivalence is the tentpole acceptance test: a run
// checkpointed at run N and restored must produce a byte-identical
// trajectory (layouts, stats, movements, train log, replay counts) to the
// same-seed uninterrupted run — at Parallelism 1 and 4, checkpointed at 1
// and restored at 4 (the worker bound is not part of the state), over both
// the memory and file-backed replay databases.
func TestResumeEquivalence(t *testing.T) {
	const checkpointAt, total = 5, 12

	for _, c := range []struct {
		name        string
		p, restoreP int
	}{{"1", 1, 1}, {"4", 4, 4}, {"1-then-4", 1, 4}} {
		for _, fileBacked := range []bool{false, true} {
			name := map[bool]string{false: "memdb", true: "waldb"}[fileBacked]
			t.Run(name+"/parallelism="+c.name, func(t *testing.T) {
				dir := t.TempDir()
				refOpts, legOpts, restoreOpts := ckptOptions(c.p), ckptOptions(c.p), ckptOptions(c.restoreP)
				if fileBacked {
					refOpts = append(refOpts, WithReplayDB(filepath.Join(dir, "ref.wal")))
					legOpts = append(legOpts, WithReplayDB(filepath.Join(dir, "leg.wal")))
					restoreOpts = append(restoreOpts, WithReplayDB(filepath.Join(dir, "leg.wal")))
				}

				// Uninterrupted reference run.
				ref, err := New(refOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				if _, err := ref.RunN(total); err != nil {
					t.Fatal(err)
				}
				want := capture(t, ref)

				// Interrupted run: checkpoint at run N, throw the system
				// away, restore, and finish.
				first, err := New(legOpts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := first.RunN(checkpointAt); err != nil {
					t.Fatal(err)
				}
				ckpt := filepath.Join(dir, "snap.ckpt")
				if err := first.Checkpoint(ckpt); err != nil {
					t.Fatal(err)
				}
				if err := first.Close(); err != nil {
					t.Fatal(err)
				}

				resumed, err := Restore(ckpt, restoreOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer resumed.Close()
				if got := len(resumed.Stats()); got != checkpointAt {
					t.Fatalf("restored system reports %d completed runs, want %d", got, checkpointAt)
				}
				if _, err := resumed.RunN(total - checkpointAt); err != nil {
					t.Fatal(err)
				}
				assertSameTrajectory(t, capture(t, resumed), want, name)
			})
		}
	}
}

// TestScenarioResumeEquivalence extends the resume invariant to the
// workload plane: a hotspot-shift run checkpointed mid-flight — with the
// hot set already rotated away from its initial position — must restore
// the scenario's generator and RNG state bit-identically. The other
// non-belle scenarios ride along cheaply as subtests.
func TestScenarioResumeEquivalence(t *testing.T) {
	const checkpointAt, total = 5, 12

	for _, name := range []string{"hotspot-shift", "write-ingest", "diurnal-tenants"} {
		t.Run(name, func(t *testing.T) {
			opts := ckptOptions(1, WithScenario(name))

			ref, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if _, err := ref.RunN(total); err != nil {
				t.Fatal(err)
			}
			want := capture(t, ref)

			first, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := first.RunN(checkpointAt); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
			if err := first.Checkpoint(ckpt); err != nil {
				t.Fatal(err)
			}
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}

			resumed, err := Restore(ckpt, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if _, err := resumed.RunN(total - checkpointAt); err != nil {
				t.Fatal(err)
			}
			assertSameTrajectory(t, capture(t, resumed), want, name)
		})
	}
}

// TestResumePastTheHorizon resumes systems long past their replay horizon.
// A memory-backed one checkpoints only the records it retains, plus how
// many it appended. A WAL-backed one runs on past its checkpoint before it
// closes, evicting records the checkpointed state still reads, so the
// restore must rebuild them from the log. Either way the restored system
// reports the checkpointed telemetry count and finishes on the
// uninterrupted run's trajectory.
func TestResumePastTheHorizon(t *testing.T) {
	const checkpointAt, more = 8, 6
	for _, fileBacked := range []bool{false, true} {
		t.Run(map[bool]string{false: "memdb", true: "waldb"}[fileBacked], func(t *testing.T) {
			dir := t.TempDir()
			opts, refOpts := ckptOptions(1, WithTrainingWindow(100)), ckptOptions(1, WithTrainingWindow(100))
			if fileBacked {
				opts = append(opts, WithReplayDB(filepath.Join(dir, "leg.wal")))
				refOpts = append(refOpts, WithReplayDB(filepath.Join(dir, "ref.wal")))
			}
			ref, err := New(refOpts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if _, err := ref.RunN(checkpointAt + more); err != nil {
				t.Fatal(err)
			}
			want := capture(t, ref)

			first, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := first.RunN(checkpointAt); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(dir, "snap.ckpt")
			if err := first.Checkpoint(ckpt); err != nil {
				t.Fatal(err)
			}
			telemetry := first.Telemetry()
			h := core.ReplayHorizon(core.Config{WindowX: 100})
			retained := len(first.Devices())*h.PerDevice + len(first.Layout())*h.PerFile
			if fileBacked {
				// Run on, so the log's end lies past the checkpoint.
				if _, err := first.RunN(more); err != nil {
					t.Fatal(err)
				}
			}
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Load(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if !fileBacked && (snap.AccessCount != telemetry || len(snap.Accesses) > retained || len(snap.Accesses) >= telemetry) {
				t.Fatalf("snapshot embeds %d records counted as %d; want the %d appended counted, at most %d embedded",
					len(snap.Accesses), snap.AccessCount, telemetry, retained)
			}

			resumed, err := Restore(ckpt, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if got := resumed.Telemetry(); got != telemetry {
				t.Fatalf("restored system reports %d records, the checkpointed one %d", got, telemetry)
			}
			if _, err := resumed.RunN(more); err != nil {
				t.Fatal(err)
			}
			assertSameTrajectory(t, capture(t, resumed), want, "past the horizon")
			if got, ref := layoutDigest(resumed.Layout()), layoutDigest(ref.Layout()); got != ref {
				t.Errorf("resumed layout digest %s, uninterrupted %s", got, ref)
			}
		})
	}
}

// TestRestoreScenarioMismatch: a snapshot taken under one scenario must
// not restore into a system configured for another — the workload state
// blob would silently corrupt the run.
func TestRestoreScenarioMismatch(t *testing.T) {
	sys, err := New(ckptOptions(1, WithScenario("zipfian-hot"))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(2); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := sys.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	if _, err := Restore(ckpt, ckptOptions(1, WithScenario("cold-scan"))...); err == nil {
		t.Error("Restore under a different scenario should fail")
	}
}

// TestResumeEquivalenceDistributed runs the same invariant through the
// TCP agents plane: telemetry batches, layout pushes, and the remote
// store must not break resume determinism.
func TestResumeEquivalenceDistributed(t *testing.T) {
	const checkpointAt, total = 4, 8

	run := func(t *testing.T, upTo int, resumeFrom string, dir string) (*System, trajectory) {
		t.Helper()
		opts := ckptOptions(1, WithDistributed())
		var sys *System
		var err error
		if resumeFrom != "" {
			sys, err = Restore(resumeFrom, opts...)
		} else {
			sys, err = New(opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunN(upTo - len(sys.Stats())); err != nil {
			sys.Close()
			t.Fatal(err)
		}
		return sys, capture(t, sys)
	}

	ref, want := run(t, total, "", "")
	defer ref.Close()

	dir := t.TempDir()
	first, _ := run(t, checkpointAt, "", dir)
	ckpt := filepath.Join(dir, "snap.ckpt")
	if err := first.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, got := run(t, total, ckpt, dir)
	defer resumed.Close()
	assertSameTrajectory(t, got, want, "distributed")
}

// TestCloseWritesFinalSnapshot: with a checkpoint directory configured,
// Close flushes a snapshot, and a second Close neither rewrites nor
// corrupts it.
func TestCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(ckptOptions(1, WithCheckpointDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries after Close, want 1", len(entries))
	}
	info, _ := entries[0].Info()
	mtime := info.ModTime()
	size := info.Size()

	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("second Close changed the snapshot count to %d", len(entries))
	}
	info2, _ := entries[0].Info()
	if !info2.ModTime().Equal(mtime) || info2.Size() != size {
		t.Error("second Close rewrote the final snapshot")
	}

	// The final snapshot is usable.
	resumed, err := RestoreLatest(dir, ckptOptions(1, WithCheckpointDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := len(resumed.Stats()); got != 3 {
		t.Errorf("resumed from final snapshot at %d runs, want 3", got)
	}
	if _, err := resumed.Run(); err != nil {
		t.Errorf("run after resume: %v", err)
	}
}

// TestRestoreLatestEmptyDir: no snapshots yet means ErrNoCheckpoint, the
// signal to fall back to a fresh New.
func TestRestoreLatestEmptyDir(t *testing.T) {
	_, err := RestoreLatest(t.TempDir(), ckptOptions(1)...)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("err = %v, want ErrNoCheckpoint", err)
	}
}

// TestRestoreSeedMismatch: resuming a snapshot under a different seed is
// a configuration error, not a silent divergence.
func TestRestoreSeedMismatch(t *testing.T) {
	dir := t.TempDir()
	sys, err := New(ckptOptions(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(2); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "snap.ckpt")
	if err := sys.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	if _, err := Restore(ckpt, WithSeed(99)); err == nil {
		t.Error("Restore with a different seed should fail")
	}
}

// TestCheckpointAfterClose: capturing a closed system must fail with
// ErrClosed instead of snapshotting torn state.
func TestCheckpointAfterClose(t *testing.T) {
	sys, err := New(ckptOptions(1)...)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if err := sys.Checkpoint(filepath.Join(t.TempDir(), "x.ckpt")); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close: err = %v, want ErrClosed", err)
	}
}

// TestPolicyResumeEquivalence extends the resume invariant to the policy
// plane: stateful policies (one-shot flags, RNG registers, online-update
// counters) checkpointed mid-run must restore bit-identically. The
// checkpoint lands after random-static's one-shot layout has fired (it
// decides at run 3 with cooldown 2), so a restored done-flag that had
// been dropped would re-fire the layout and diverge the trajectory.
func TestPolicyResumeEquivalence(t *testing.T) {
	const checkpointAt, total = 5, 12

	for _, name := range []string{"random-static", "random-dynamic", "online-geomancy"} {
		t.Run(name, func(t *testing.T) {
			opts := ckptOptions(1, WithPolicy(name))

			ref, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if _, err := ref.RunN(total); err != nil {
				t.Fatal(err)
			}
			want := capture(t, ref)

			first, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := first.RunN(checkpointAt); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
			if err := first.Checkpoint(ckpt); err != nil {
				t.Fatal(err)
			}
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}

			resumed, err := Restore(ckpt, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if _, err := resumed.RunN(total - checkpointAt); err != nil {
				t.Fatal(err)
			}
			assertSameTrajectory(t, capture(t, resumed), want, name)
		})
	}
}

// TestRestorePolicyMismatch: a snapshot taken under one placement policy
// must not restore into a system configured for another — the policy
// state blob (and the missing engine state for baselines) would silently
// corrupt the run.
func TestRestorePolicyMismatch(t *testing.T) {
	sys, err := New(ckptOptions(1, WithPolicy("lru"))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(2); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := sys.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	if _, err := Restore(ckpt, ckptOptions(1, WithPolicy("mru"))...); err == nil {
		t.Error("Restore under a different policy should fail")
	}
}

// TestRestoreMismatchLeavesWALUntouched: a restore refused for another
// policy, scenario or partition width than the snapshot's fails before it
// touches the replay log. The WAL holds records past the snapshot's
// watermark, which a restore that went ahead would cut; a refused one
// leaves every byte.
func TestRestoreMismatchLeavesWALUntouched(t *testing.T) {
	for name, c := range map[string]struct{ taken, restored Option }{
		"policy":   {WithPolicy("lru"), WithPolicy("mru")},
		"scenario": {WithScenario("zipfian-hot"), WithScenario("cold-scan")},
		"shards":   {WithShards(2), WithShards(3)},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			wal, ckpt := filepath.Join(dir, "replay.wal"), filepath.Join(dir, "snap.ckpt")
			sys, err := New(ckptOptions(1, c.taken, WithReplayDB(wal))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunN(2); err != nil {
				t.Fatal(err)
			}
			if err := sys.Checkpoint(ckpt); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunN(2); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(ckpt, ckptOptions(1, c.restored, WithReplayDB(wal))...); err == nil {
				t.Fatal("Restore under mismatched options succeeded")
			}
			after, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Errorf("a refused restore changed the WAL: %d bytes before, %d after", len(before), len(after))
			}
		})
	}
}

// TestRestoreMalformedLoopLeavesWALUntouched: a snapshot whose loop half
// no run could have written — one gap estimate's mean set to NaN — is
// refused with core.ErrInvalidState before the restore touches the replay
// log, which holds records past the snapshot's watermark that a restore
// that went ahead would cut.
func TestRestoreMalformedLoopLeavesWALUntouched(t *testing.T) {
	dir := t.TempDir()
	wal, ckpt := filepath.Join(dir, "replay.wal"), filepath.Join(dir, "snap.ckpt")
	opts := ckptOptions(1, WithGapScheduling(), WithReplayDB(wal))
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Loop.Gaps == nil || len(snap.Loop.Gaps.Files) == 0 {
		t.Fatal("the snapshot carries no gap estimates")
	}
	snap.Loop.Gaps.Files[0].Mean = math.NaN()
	if err := checkpoint.Save(ckpt, snap); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(ckpt, opts...); !errors.Is(err, core.ErrInvalidState) {
		t.Fatalf("Restore of a NaN gap mean = %v, want core.ErrInvalidState", err)
	}
	after, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("a refused restore changed the WAL: %d bytes before, %d after", len(before), len(after))
	}
}

// layoutDigest is bench's order-independent layout fingerprint: FNV-64a
// over "id=device;" in file-ID order.
func layoutDigest(layout map[int64]string) string {
	ids := make([]int64, 0, len(layout))
	for id := range layout {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d=%s;", id, layout[id])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRestoreParentSnapshot resumes a snapshot written by the commit before
// the scheduler's headroom, the gap model's EWMA weight and the facade's
// bootstrap counter stopped being checkpointed (ckptOptions with
// online-geomancy and gap scheduling, memory-backed, taken after 4 runs,
// past the warm-up). gob drops the fields the types no longer have, and
// the resumed run must end where that commit's own resume ended.
func TestRestoreParentSnapshot(t *testing.T) {
	const (
		runs        = 6
		wantDigest  = "2ef02693471c8708"
		wantRecords = 3668
	)
	sys, err := Restore(filepath.Join("testdata", "online_gaps_parent.ckpt"),
		ckptOptions(1, WithPolicy("online-geomancy"), WithGapScheduling())...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunN(runs); err != nil {
		t.Fatal(err)
	}
	if got := layoutDigest(sys.Layout()); got != wantDigest {
		t.Errorf("layout digest %s after %d resumed runs, the parent reached %s", got, runs, wantDigest)
	}
	if got := sys.Telemetry(); got != wantRecords {
		t.Errorf("%d records after %d resumed runs, the parent reached %d", got, runs, wantRecords)
	}
}
