// Command geomancy runs the full distributed deployment against the
// simulated Bluesky system: the Interface Daemon listens on TCP, one
// monitoring agent per mount ships telemetry batches, a control agent
// executes layout pushes, and the DRL engine trains from the ReplayDB and
// pushes new layouts every cooldown.
//
// This is the wiring of Fig. 2, with the simulated cluster standing in for
// the target system:
//
//	geomancy [-listen 127.0.0.1:0] [-runs 25] [-seed 1] [-epochs 40]
//	         [-scenario belle] [-list-scenarios]
//	         [-policy geomancy] [-list-policies]
//	         [-cooldown 5] [-bootstrap 5] [-db replay.wal] [-model 1]
//	         [-epsilon 0.1] [-target throughput|latency] [-parallel 0]
//	         [-shards 0]
//	         [-checkpoint-dir state/] [-checkpoint-every 5]
//	         [-retry-attempts 4] [-retry-base 5ms] [-io-timeout 5s]
//	         [-fail-open] [-fault-drop 0] [-fault-delay 0] [-fault-partial 0]
//	         [-metrics-addr 127.0.0.1:9090] [-metrics-json metrics.json] [-v]
//
// With -checkpoint-dir the process is crash-safe: rotating snapshots are
// written every -checkpoint-every runs and on graceful shutdown, and a
// restart with the same flags resumes from the newest intact snapshot,
// continuing the interrupted trajectory bit-for-bit. The first
// SIGINT/SIGTERM finishes the current run, snapshots, and exits; a second
// signal aborts immediately (no snapshot is taken of the torn run).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"geomancy"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "Interface Daemon listen address")
	runs := flag.Int("runs", 25, "workload runs to execute")
	seed := flag.Int64("seed", 1, "random seed")
	epochs := flag.Int("epochs", 40, "training epochs of a cold fit; a warm fit trains in proportion to the telemetry taken since the last one")
	cooldown := flag.Int("cooldown", 5, "runs between layout decisions")
	bootstrap := flag.Int("bootstrap", 5, "telemetry-only warm-up runs before the first decision")
	windowX := flag.Int("window", 1000, "per-device ReplayDB training window")
	dbPath := flag.String("db", "", "ReplayDB WAL path (empty = in-memory)")
	verbose := flag.Bool("v", false, "log layout decisions and checkpoint writes")
	model := flag.Int("model", 1, "dense Table I architecture number (1-11)")
	epsilon := flag.Float64("epsilon", 0.1, "exploration rate")
	target := flag.String("target", "throughput", "modeling target: throughput or latency")
	parallel := flag.Int("parallel", 0, "goroutines sharing each decision's scoring loop, one run of files at a time (0 = GOMAXPROCS); speed only, never changes a result")
	shards := flag.Int("shards", 0, "partition devices into N placement shards, decided one after another through one scoring loop (0 = unsharded)")
	topK := flag.Int("topk", 0, "candidate pruning: score only the top k devices by recent throughput (0 = exhaustive scoring)")
	fullRescan := flag.Int("full-rescan-every", 0, "with -topk: every Nth decision re-scores the full candidate space (0 = default 8)")
	ckptDir := flag.String("checkpoint-dir", "", "snapshot directory: resume from it on start, checkpoint into it while running (empty = disabled)")
	ckptEvery := flag.Int("checkpoint-every", 5, "runs between rotating snapshots (0 = only on shutdown)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics on this address (empty = disabled)")
	metricsJSON := flag.String("metrics-json", "", "write a JSON metrics snapshot to this file on exit")
	retryAttempts := flag.Int("retry-attempts", 0, "agent RPC retry budget (0 = default 4)")
	retryBase := flag.Duration("retry-base", 0, "agent retry base backoff (0 = default 5ms)")
	ioTimeout := flag.Duration("io-timeout", 0, "per-RPC agent I/O deadline (0 = default 5s)")
	failOpen := flag.Bool("fail-open", true, "keep serving the last-known layout when agents are unreachable")
	faultDrop := flag.Float64("fault-drop", 0, "inject: probability an agent I/O drops the connection")
	faultDelay := flag.Float64("fault-delay", 0, "inject: probability an agent I/O is delayed")
	faultDelayDur := flag.Duration("fault-delay-ms", 2*time.Millisecond, "inject: delay applied to delayed I/Os")
	faultPartial := flag.Float64("fault-partial", 0, "inject: probability a write is truncated mid-stream")
	scenarioName := flag.String("scenario", "belle", "workload scenario to drive (see -list-scenarios)")
	listScenarios := flag.Bool("list-scenarios", false, "list the workload scenario catalogue and exit")
	policyName := flag.String("policy", "geomancy", "placement policy to drive decisions (see -list-policies)")
	listPolicies := flag.Bool("list-policies", false, "list the placement-policy catalogue and exit")
	flag.Parse()

	if *listScenarios {
		for _, info := range geomancy.Scenarios() {
			fmt.Printf("%-16s %s\n", info.Name, info.Description)
		}
		return
	}
	if *listPolicies {
		for _, info := range geomancy.Policies() {
			fmt.Printf("%-16s %s\n", info.Name, info.Description)
		}
		return
	}

	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	reg := geomancy.NewMetrics()
	opts := []geomancy.Option{
		geomancy.WithDistributed(),
		geomancy.WithListenAddr(*listen),
		geomancy.WithSeed(*seed),
		geomancy.WithScenario(*scenarioName),
		geomancy.WithPolicy(*policyName),
		geomancy.WithModel(*model),
		geomancy.WithEpsilon(*epsilon),
		geomancy.WithEpochs(*epochs),
		geomancy.WithCooldown(*cooldown),
		geomancy.WithBootstrapRuns(*bootstrap),
		geomancy.WithTrainingWindow(*windowX),
		geomancy.WithParallelism(*parallel),
		geomancy.WithTelemetry(reg),
		geomancy.WithFailOpen(*failOpen),
		geomancy.WithRetryPolicy(geomancy.RetryPolicy{
			MaxAttempts: *retryAttempts,
			BaseDelay:   *retryBase,
			IOTimeout:   *ioTimeout,
		}),
	}
	if *dbPath != "" {
		opts = append(opts, geomancy.WithReplayDB(*dbPath))
	}
	if *shards > 0 {
		opts = append(opts, geomancy.WithShards(*shards))
	}
	if *topK > 0 {
		opts = append(opts, geomancy.WithTopK(*topK))
	}
	if *fullRescan > 0 {
		opts = append(opts, geomancy.WithFullRescanEvery(*fullRescan))
	}
	switch *target {
	case "throughput":
	case "latency":
		opts = append(opts, geomancy.WithLatencyTarget())
	default:
		fmt.Fprintf(os.Stderr, "geomancy: -target must be throughput or latency, not %q\n", *target)
		flag.Usage()
		os.Exit(2)
	}
	faults := *faultDrop > 0 || *faultDelay > 0 || *faultPartial > 0
	if faults {
		opts = append(opts, geomancy.WithFaultInjection(geomancy.FaultConfig{
			Seed:             *seed,
			DropRate:         *faultDrop,
			DelayRate:        *faultDelay,
			Delay:            *faultDelayDur,
			PartialWriteRate: *faultPartial,
		}))
	}
	if *ckptDir != "" {
		opts = append(opts, geomancy.WithCheckpointDir(*ckptDir))
	}

	// The first signal requests a graceful stop: the current run finishes,
	// Close flushes a boundary snapshot, and the process exits. A second
	// signal cancels the run context and aborts mid-run without a snapshot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stopping atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		stopping.Store(true)
		fmt.Fprintln(os.Stderr, "geomancy: signal received; finishing current run (repeat to abort)")
		<-sigCh
		cancel()
	}()

	err := run(ctx, &stopping, *runs, *ckptDir, *ckptEvery, *verbose, *metricsAddr, *metricsJSON, faults, reg, opts)
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "geomancy: interrupted")
		os.Exit(130)
	case err != nil:
		log.SetFlags(0)
		log.Fatalf("geomancy: %v", err)
	}
}

// open resumes from the checkpoint directory when one is configured and
// holds a usable snapshot, otherwise starts a fresh system. A store whose
// every snapshot is corrupt is a hard error rather than a silent restart.
func open(ckptDir string, opts []geomancy.Option) (*geomancy.System, error) {
	if ckptDir == "" {
		return geomancy.New(opts...)
	}
	sys, err := geomancy.RestoreLatest(ckptDir, opts...)
	switch {
	case err == nil:
		fmt.Printf("resumed from %s: %d runs completed\n", ckptDir, len(sys.Stats()))
		return sys, nil
	case errors.Is(err, geomancy.ErrNoCheckpoint):
		return geomancy.New(opts...)
	case errors.Is(err, geomancy.ErrCorrupt):
		return nil, fmt.Errorf("every snapshot in %s is corrupt: %w (clear the directory to start fresh)", ckptDir, err)
	default:
		return nil, err
	}
}

func run(ctx context.Context, stopping *atomic.Bool, runs int, ckptDir string, ckptEvery int, verbose bool, metricsAddr, metricsJSON string, faults bool, reg *geomancy.Metrics, opts []geomancy.Option) error {
	if metricsAddr != "" {
		srv, err := reg.Serve(metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	}

	sys, err := open(ckptDir, opts)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sys.Close()
		}
	}()
	fmt.Printf("interface daemon listening on %s\n", sys.ListenAddr())

	trained := len(sys.TrainLog())
	moved := len(sys.Movements())
	skipped := len(sys.Skipped())
	// Stats copies every run so far; count the runs here instead of calling
	// it each time round.
	done := len(sys.Stats())
	for done < runs && !stopping.Load() {
		stats, err := sys.RunContext(ctx)
		if err != nil {
			return err
		}
		done++
		fmt.Printf("run %2d: %4d accesses, mean %.2f GB/s, p50/p95/p99 latency %.1f/%.1f/%.1f ms\n",
			stats.Run, stats.Accesses, stats.MeanThroughput/1e9,
			stats.LatencyP50*1e3, stats.LatencyP95*1e3, stats.LatencyP99*1e3)

		if log := sys.TrainLog(); len(log) > trained {
			rep := log[len(log)-1]
			trained = len(log)
			movedFiles := 0
			events := sys.Movements()
			for _, ev := range events[moved:] {
				movedFiles += ev.Moved
			}
			moved = len(events)
			fmt.Printf("  tuned: trained on %d samples in %d epochs (%v, val MARE %s), moved %d files\n",
				rep.Samples, rep.Epochs, rep.Duration.Round(time.Millisecond), rep.Validation.String(), movedFiles)
			if verbose {
				for _, ev := range events[len(events)-1:] {
					fmt.Printf("    layout push at access %d: %d moved, %d explored\n",
						ev.AccessIndex, ev.Moved, ev.Random)
				}
			}
		}
		if sk := sys.Skipped(); len(sk) > skipped {
			for _, d := range sk[skipped:] {
				fmt.Fprintf(os.Stderr, "degraded (run %d): %s\n", d.Run, d.Reason)
			}
			skipped = len(sk)
		}
		if ckptDir != "" && ckptEvery > 0 && done%ckptEvery == 0 {
			path, err := sys.SaveCheckpoint()
			if err != nil {
				return fmt.Errorf("checkpointing: %w", err)
			}
			if verbose {
				fmt.Printf("  checkpoint: %s\n", path)
			}
		}
	}

	if n := sys.Telemetry(); n > 0 {
		movedFiles := 0
		for _, ev := range sys.Movements() {
			movedFiles += ev.Moved
		}
		fmt.Printf("overall mean throughput: %.2f GB/s over %d runs (%d telemetry records, %d movements)\n",
			sys.MeanThroughput()/1e9, done, n, movedFiles)
	}
	if faults {
		st := sys.FaultStats()
		fmt.Printf("fault injection: %d drops, %d delays, %d partial writes\n",
			st.Drops, st.Delays, st.PartialWrites)
	}

	// Close before writing the JSON snapshot so the final checkpoint (and
	// its replay-log sync) is included in the run's teardown path.
	closed = true
	if err := sys.Close(); err != nil {
		return err
	}
	if ckptDir != "" && stopping.Load() {
		fmt.Fprintf(os.Stderr, "geomancy: snapshot flushed to %s\n", ckptDir)
	}

	if metricsJSON != "" {
		f, err := os.Create(metricsJSON)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", metricsJSON)
	}
	return nil
}
