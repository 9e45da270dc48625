package geomancy

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestCloseIdempotentAndRunAfterClose(t *testing.T) {
	sys, err := New(WithSeed(1), WithEpochs(2), WithTrainingWindow(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := sys.Run(); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close = %v, want ErrClosed", err)
	}
	if _, err := sys.RunN(3); !errors.Is(err, ErrClosed) {
		t.Errorf("RunN after Close = %v, want ErrClosed", err)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	sys := quickSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext(cancelled) = %v, want context.Canceled", err)
	}
	if len(sys.Stats()) != 0 {
		t.Error("cancelled run recorded stats")
	}
}

// Cancelling a long tuned run (large epoch budget) must return promptly
// with the context's error and leave no engine goroutines behind.
func TestRunContextCancelMidCycle(t *testing.T) {
	sys := quickSystem(t,
		WithBootstrapRuns(1),
		WithCooldown(1),
		WithEpochs(20000), // far more than completes in the cancel window
		WithTrainingWindow(2000),
		WithParallelism(4),
	)
	if _, err := sys.Run(); err != nil { // bootstrap run, fills the ReplayDB
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.RunContext(ctx) // tuned run: trains for 20000 epochs
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled tuned run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return promptly after cancellation")
	}
	// Worker goroutines must drain: poll until the count settles back.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, now)
	}
}

func TestWithObserver(t *testing.T) {
	var seen int
	sys := quickSystem(t, WithObserver(func(res AccessResult, wl, run int) {
		if res.Throughput <= 0 || res.Device == "" {
			t.Errorf("observer got malformed access: %+v", res)
		}
		seen++
	}))
	stats, err := sys.RunN(4) // spans bootstrap and tuned runs
	if err != nil {
		t.Fatal(err)
	}
	var accesses int
	for _, st := range stats {
		accesses += st.Accesses
	}
	if seen != accesses {
		t.Errorf("observer saw %d accesses, runs made %d", seen, accesses)
	}
}

// The worker bound never affects a result: equal seeds at pool sizes 1, 2
// and 8 give identical layouts, run stats, movements and train logs, bit
// for bit.
func TestWithParallelismDeterministic(t *testing.T) {
	run := func(par int) trajectory {
		sys, err := New(WithSeed(7), WithEpochs(4), WithTrainingWindow(200),
			WithCooldown(2), WithBootstrapRuns(1), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if _, err := sys.RunN(5); err != nil {
			t.Fatal(err)
		}
		return capture(t, sys)
	}
	want := run(1)
	assertSameTrajectory(t, run(2), want, "parallelism 2 vs 1")
	assertSameTrajectory(t, run(8), want, "parallelism 8 vs 1")
}
