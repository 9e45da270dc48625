package geomancy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"geomancy/internal/checkpoint"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
)

// observedCall is one observer call as the recording tests log it: the
// access, and how many records the store held when the call was made.
type observedCall struct {
	FileID  int64
	Start   float64
	Wl, Run int
	Stored  int
}

// countedCancel is a context whose Err reports cancellation from its n-th
// check on. The workload checks it on the simulating caller between
// accesses, so a run stops at the same access at any Parallelism.
type countedCancel struct {
	context.Context
	n int
}

func (c *countedCancel) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// errStalled is what stalledWorkload's failing run returns.
var errStalled = errors.New("workload stalled")

// stalledWorkload is a scenario whose failAt-th run stops after stopAfter
// accesses with errStalled, as a workload failing mid-run does.
type stalledWorkload struct {
	Workload
	failAt, stopAfter, runs int
}

func (w *stalledWorkload) RunOnceContext(ctx context.Context, obs Observer) (RunStats, error) {
	if w.runs++; w.runs-1 != w.failAt {
		return w.Workload.RunOnceContext(ctx, obs)
	}
	stats, err := w.Workload.RunOnceContext(&countedCancel{Context: ctx, n: w.stopAfter}, obs)
	if err != nil {
		return stats, fmt.Errorf("%w after %d accesses: %v", errStalled, stats.Accesses, err)
	}
	return stats, nil
}

// recordingRig is one facade system with its observer's call log and how
// many of those calls ran off the goroutine that called Run.
type recordingRig struct {
	sys       *System
	calls     []observedCall
	caller    uint64 // the goroutine in Run
	offCaller int
}

// goroutineID is the calling goroutine's number, as its stack trace's
// first line ("goroutine 42 [running]:") gives it.
func goroutineID() uint64 {
	var buf [32]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	var id uint64
	for _, c := range line {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// newRecordingRig builds the rig's system at Parallelism par over a BELLE
// II workload whose eighth run stalls after 150 accesses.
func newRecordingRig(t *testing.T, par int) *recordingRig {
	t.Helper()
	r := &recordingRig{}
	sys, err := New(
		WithSeed(3), WithEpochs(4), WithTrainingWindow(300), WithCooldown(2), WithBootstrapRuns(2),
		WithParallelism(par),
		WithWorkload(func(cluster *storagesim.Cluster, files []File, seed int64) (Workload, error) {
			w, err := scenario.New("belle", cluster, files, seed)
			return &stalledWorkload{Workload: w, failAt: 7, stopAfter: 150}, err
		}),
		WithObserver(func(res AccessResult, wl, run int) {
			r.calls = append(r.calls, observedCall{res.FileID, res.Start, wl, run, r.sys.Telemetry()})
			if goroutineID() != r.caller {
				r.offCaller++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	r.sys = sys
	t.Cleanup(func() { sys.Close() })
	return r
}

// snapshotBytes is the system's checkpoint as it would be written, with
// the train log's wall-clock durations zeroed.
func (r *recordingRig) snapshotBytes(t *testing.T) []byte {
	t.Helper()
	snap, err := r.sys.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	train := append([]TrainReport(nil), snap.Loop.TrainLog...)
	for i := range train {
		train[i].Duration = 0
	}
	snap.Loop.TrainLog = train
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// run issues one Run under ctx, checks that no goroutine outlives it and
// that every observer call was made before it returned, and returns its
// error.
func (r *recordingRig) run(t *testing.T, ctx context.Context) error {
	t.Helper()
	before, calls := runtime.NumGoroutine(), len(r.calls)
	r.caller = goroutineID()
	st, err := r.sys.RunContext(ctx)
	seen := len(r.calls) - calls
	goroutinesBack(t, before)
	if len(r.calls) != calls+seen {
		t.Fatalf("the observer was called %d times after Run returned", len(r.calls)-calls-seen)
	}
	if err == nil && seen != st.Accesses {
		t.Fatalf("the observer saw %d accesses of a %d-access run", seen, st.Accesses)
	}
	return err
}

// A run records on a goroutine of its own at Parallelism > 1 and changes
// nothing: a facade system at Parallelism 4 stores the same records in the
// same order under the same sequence numbers, keeps the same file table
// (placement and heat), access count, movements and train log, marshals
// the same checkpoint and calls its observer with the same accesses, each
// after the access was stored, as the same system at Parallelism 1, which
// records on the caller — over bootstrap and decision runs, a run
// cancelled mid-way and a run whose workload fails mid-way (an observer
// that closes the store is TestRecordingBesideTheRunStoreClosed). Each Run joins its goroutine
// before it returns, and none outlives Close.
func TestRecordingBesideTheRunMatchesSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	serial, beside := newRecordingRig(t, 1), newRecordingRig(t, 4)
	rigs := []*recordingRig{serial, beside}
	same := func(step string) {
		t.Helper()
		s, b := serial.sys, beside.sys
		if !reflect.DeepEqual(b.db.All(), s.db.All()) {
			t.Fatalf("%s: stored records differ from the serial system's", step)
		}
		ss, bs := s.loop.State(), b.loop.State()
		sf, bf := s.cluster.State().Files, b.cluster.State().Files
		if bs.AccessCount != ss.AccessCount || !reflect.DeepEqual(bf, sf) {
			t.Fatalf("%s: access count %d, heat of %d files; serial %d, %d", step, bs.AccessCount, len(bf), ss.AccessCount, len(sf))
		}
		if !reflect.DeepEqual(b.Movements(), s.Movements()) || !reflect.DeepEqual(trainBits(b), trainBits(s)) {
			t.Fatalf("%s: movements or train log differ from the serial system's", step)
		}
		if !reflect.DeepEqual(beside.calls, serial.calls) {
			t.Fatalf("%s: the observer's %d calls differ from the serial system's %d", step, len(beside.calls), len(serial.calls))
		}
		for i, c := range serial.calls {
			if c.Stored < i+1 {
				t.Fatalf("%s: observer call %d ran with %d records stored, before its access was", step, i, c.Stored)
			}
		}
	}
	ctx := context.Background()
	for k := 0; k < 7; k++ { // two bootstrap runs, then a decision every other run
		for _, r := range rigs {
			if err := r.run(t, ctx); err != nil {
				t.Fatalf("run %d: %v", k, err)
			}
		}
		step := fmt.Sprintf("run %d", k)
		same(step)
		if !bytes.Equal(beside.snapshotBytes(t), serial.snapshotBytes(t)) {
			t.Fatalf("%s: the checkpoint differs from the serial system's", step)
		}
	}
	if len(serial.sys.Movements()) < 2 {
		t.Fatalf("%d decisions in the runs, want at least two", len(serial.sys.Movements()))
	}
	if serial.offCaller != 0 || beside.offCaller != len(beside.calls) {
		t.Fatalf("observer calls off the goroutine in Run: %d of %d at Parallelism 1, %d of %d at 4; want none, then all: the run did not record beside the simulation",
			serial.offCaller, len(serial.calls), beside.offCaller, len(beside.calls))
	}

	// The workload's eighth run stops after 150 accesses with an error.
	for _, r := range rigs {
		if err := r.run(t, ctx); !errors.Is(err, errStalled) {
			t.Fatalf("stalled run: %v, want %v", err, errStalled)
		}
	}
	same("stalled run")
	// A run cancelled after 100 accesses.
	for _, r := range rigs {
		if err := r.run(t, &countedCancel{Context: ctx, n: 100}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: %v, want context.Canceled", err)
		}
	}
	same("cancelled run")
	for _, r := range rigs {
		if err := r.run(t, ctx); err != nil {
			t.Fatalf("run after the failures: %v", err)
		}
	}
	same("run after the failures")
	if !bytes.Equal(beside.snapshotBytes(t), serial.snapshotBytes(t)) {
		t.Fatal("after the failures the checkpoint differs from the serial system's")
	}
	for _, r := range rigs {
		if err := r.sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	goroutinesBack(t, base)
}

// goroutinesBack waits until no more than n goroutines run: a joined
// goroutine has signalled, but may not have returned yet.
func goroutinesBack(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// An observer that closes the store fails the run at Parallelism 4 as it
// does at 1: the same telemetry error, after the same stored records and
// observer calls.
func TestRecordingBesideTheRunStoreClosed(t *testing.T) {
	const closeAt = 40
	var errs []string
	var stored []int
	var calls [][]observedCall
	for _, par := range []int{1, 4} {
		r := &recordingRig{}
		sys, err := New(WithSeed(3), WithEpochs(4), WithTrainingWindow(300), WithCooldown(2), WithBootstrapRuns(2),
			WithParallelism(par),
			WithObserver(func(res AccessResult, wl, run int) {
				r.calls = append(r.calls, observedCall{res.FileID, res.Start, wl, run, r.sys.Telemetry()})
				if len(r.calls) == closeAt {
					r.sys.db.Close()
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		r.sys = sys
		err = r.run(t, context.Background())
		if err == nil || !strings.Contains(err.Error(), "core: recording telemetry") {
			t.Fatalf("parallelism %d: Run over a closed store = %v, want a telemetry recording error", par, err)
		}
		errs, stored, calls = append(errs, err.Error()), append(stored, sys.Telemetry()), append(calls, r.calls)
		sys.Close()
	}
	if errs[1] != errs[0] || stored[1] != stored[0] || stored[0] != closeAt || !reflect.DeepEqual(calls[1], calls[0]) {
		t.Fatalf("parallelism 4: %q with %d records stored; parallelism 1: %q with %d (want %d)", errs[1], stored[1], errs[0], stored[0], closeAt)
	}
}

// A steady-state local Run allocates a handful of objects whatever its
// length, and recording beside the simulation costs two of them (the
// recording goroutine's closure and the caller's queueing one): the ring
// the accesses pass through is the loop's, reused from run to run, and no
// access is boxed on its way. Measured at 16 objects on the caller and 18
// beside, for a 364-access run.
func TestRunAllocations(t *testing.T) {
	allocs := func(par int) float64 {
		sys, err := New(WithSeed(3), WithEpochs(4), WithTrainingWindow(300), WithCooldown(1000), WithBootstrapRuns(1000), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		run := func() {
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run()
		}
		return testing.AllocsPerRun(20, run)
	}
	serial, beside := allocs(1), allocs(4)
	t.Logf("a run allocates %.0f objects on the caller, %.0f beside", serial, beside)
	if serial > 20 {
		t.Errorf("a run recording on the caller allocates %.0f objects, want at most 20", serial)
	}
	if beside > serial+2 {
		t.Errorf("a run recording beside the simulation allocates %.0f objects, %.0f more than one recording on the caller; want at most 2 more", beside, beside-serial)
	}
}

// A panicking observer panics Run on the caller at Parallelism 4 as it
// does at 1, with the same value, after the same records were stored, and
// with the recording goroutine joined; the next run records normally.
func TestRecordingBesideTheRunPanics(t *testing.T) {
	const panicAt = 30
	for _, par := range []int{1, 4} {
		seen, armed := 0, true
		var sys *System
		sys = quickSystem(t, WithParallelism(par), WithObserver(func(AccessResult, int, int) {
			if seen++; armed && seen == panicAt {
				panic("observer gave up")
			}
		}))
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if p := recover(); p != "observer gave up" {
					t.Fatalf("parallelism %d: Run panicked with %v, want the observer's panic", par, p)
				}
			}()
			sys.Run()
		}()
		if got := sys.Telemetry(); got != panicAt {
			t.Fatalf("parallelism %d: %d records stored before the panic, want %d", par, got, panicAt)
		}
		goroutinesBack(t, before)
		armed, seen = false, 0
		st, err := sys.Run()
		if err != nil || seen != st.Accesses || sys.Telemetry() != panicAt+st.Accesses {
			t.Fatalf("parallelism %d: the run after the panic: %v, %d observed of %d accesses, %d records", par, err, seen, st.Accesses, sys.Telemetry())
		}
	}
}
