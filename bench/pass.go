package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"geomancy"
	"geomancy/internal/telemetry"
)

// metric is one reported number. Samples is the count of timings behind a
// percentile (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// passResult is what one pass of one workload reports.
type passResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Metrics    map[string]metric `json:"metrics"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`

	// End state, for cross-checking passes of one seed.
	Digest  string  `json:"layout_digest"`
	Runs    int     `json:"window_runs"`
	Cycles  int     `json:"window_cycles"`
	Records int     `json:"records"`
	SimGBps float64 `json:"sim_throughput_gbps"`

	// left behind for the probes
	snapshot string
	skipRuns int
}

// passConfig sizes one pass.
type passConfig struct {
	seconds   float64
	fixedRuns int // > 0: the window is exactly this many Run calls
	setups    int // set-up repetitions; the last one is measured
	dir       string
	probes    time.Duration // per-probe round length; 0 skips the probes
	traceOut  string
}

// untracedPass drives the public facade: set up cfg.setups times (reporting
// the median), measure on the last, check the outputs, and on a
// checkpointing workload close and restore.
func untracedPass(s spec, in inputs, cfg passConfig) (*passResult, error) {
	var inst *instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.sys.Close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
		}
		t0 := time.Now()
		var err error
		inst, err = newInstance(s, in, filepath.Join(cfg.dir, fmt.Sprintf("facade-%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := inst.warmUp(); err != nil {
			inst.sys.Close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res := &passResult{Workload: s.name, Seed: in.seed, Metrics: map[string]metric{}, skipRuns: inst.runs}
	w, err := inst.measure(cfg.seconds, cfg.fixedRuns)
	if err != nil {
		inst.sys.Close()
		return nil, err
	}
	res.Violations = inst.check()
	layout := inst.sys.Layout()
	res.Digest, res.Records = layoutDigest(layout), inst.sys.Telemetry()
	res.Runs, res.Cycles, res.SimGBps = w.runs, w.cycles, w.simThroughputGBps()
	skipped := len(inst.sys.Skipped())

	facade := inst.sys.(*geomancy.System)
	// One explicit snapshot of the end state sizes the checkpoint probes
	// and checkpoint.bytes on every workload, outside the window.
	if cfg.probes > 0 {
		res.snapshot = filepath.Join(cfg.dir, "end-state.ckpt")
		if err := facade.Checkpoint(res.snapshot); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("end-state checkpoint: %v", err))
			res.snapshot = ""
		}
	}
	if err := inst.sys.Close(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("close: %v", err))
	}
	var restoreMs []float64
	restoreFails := 0
	if inst.paths.ckptDir != "" {
		var bad []string
		restoreMs, restoreFails, bad = inst.restoreCheck(layout, res.Records)
		res.Violations = append(res.Violations, bad...)
	}

	res.Attempted = inst.runs + inst.due + len(w.ckptMs) + len(restoreMs)
	res.Failed = inst.runErrs + skipped + w.ckptFails + restoreFails + len(res.Violations)

	m := res.Metrics
	m["setup_s"] = metric{percentile(setupS, 0.5), "s", len(setupS)}
	m["cycle_ms_p50"] = metric{percentile(w.cycleMs, 0.5), "ms", len(w.cycleMs)}
	m["accesses_per_s"] = metric{float64(w.accesses) / w.wall.Seconds(), "1/s", 0}
	m["alloc_mb_per_cycle"] = metric{float64(w.allocBytes) / 1e6 / float64(w.cycles), "MB", 0}
	m["live_heap_mb"] = metric{w.liveHeapMB, "MB", 0}
	// The rest is reported with the per-layer set: too seed-dependent or
	// too few samples to bound on every workload, or specific to one.
	m["sim_throughput_gbps"] = metric{res.SimGBps, "GB/s", 0}
	m["access_us_p50"] = metric{percentile(w.accessUs, 0.5), "us", len(w.accessUs)}
	m["peak_rss_mb"] = metric{w.rssMB, "MB", 0}
	m["cycle_ms_p90"] = metric{percentile(w.cycleMs, 0.9), "ms", len(w.cycleMs)}
	m["checkpoint.save_ms_p50"] = metric{percentile(w.ckptMs, 0.5), "ms", len(w.ckptMs)}
	m["checkpoint.restore_ms_p50"] = metric{percentile(restoreMs, 0.5), "ms", len(restoreMs)}
	m["runtime.gc_pause_ms_per_cycle"] = metric{float64(w.gcPauseNs) / 1e6 / float64(w.cycles), "ms", 0}
	m["runtime.mallocs_per_cycle"] = metric{float64(w.mallocs) / float64(w.cycles), "count", 0}
	m["replaydb.records"] = metric{float64(res.Records), "count", 0}
	if inst.paths.wal != "" {
		if fi, err := os.Stat(inst.paths.wal); err == nil && res.Records > 0 {
			m["replaydb.wal_bytes_per_access"] = metric{float64(fi.Size()) / float64(res.Records), "bytes", 0}
		}
	}
	if res.snapshot != "" {
		if fi, err := os.Stat(res.snapshot); err == nil {
			m["checkpoint.bytes"] = metric{float64(fi.Size()), "bytes", 0}
		}
	}
	if inst.metrics != nil {
		m["agents.reports_per_run"] = metric{counterValue(inst.metrics, telemetry.MetricDaemonReportsTotal) / float64(inst.runs), "count", 0}
		m["agents.retries"] = metric{counterValue(inst.metrics, telemetry.MetricAgentRetriesTotal), "count", 0}
	}
	return res, nil
}

// counterValue sums every series of one counter family.
func counterValue(reg *telemetry.Registry, name string) float64 {
	var sum float64
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Value != nil {
			sum += *s.Value
		}
	}
	return sum
}

// histogramSum sums the observations of every series of one histogram.
func histogramSum(reg *telemetry.Registry, name string) float64 {
	var sum float64
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Histogram != nil {
			sum += s.Histogram.Sum
		}
	}
	return sum
}

// tracedPass runs the decorated re-assembly for the window, then an
// untraced reference pass of exactly the same number of runs, and reports
// the per-layer set: span self times and call counts, boundary counts,
// the numbers only the facade pass can measure, and the layer probes. The
// two passes must end in the same state.
func tracedPass(s spec, in inputs, cfg passConfig) (*passResult, error) {
	t := newTracer()
	inst, err := newInstance(s, in, filepath.Join(cfg.dir, "traced"), t)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	ts := inst.sys.(*tracedSystem)
	// Engine-side counts (rows scored, shard escalations) exist only as
	// registry series. They are touched once per training or inference,
	// never per access, so wiring them here does not change the access
	// path the untraced pass runs.
	counts := inst.metrics
	if counts == nil {
		counts = telemetry.NewRegistry()
		ts.loop.Engine.SetMetrics(counts)
		if ts.sharded != nil {
			ts.sharded.SetMetrics(counts)
		}
	}
	if err := inst.warmUp(); err != nil {
		inst.sys.Close()
		return nil, err
	}
	rowsBefore := histogramSum(counts, telemetry.MetricInferenceBatchSize)
	escBefore := counterValue(counts, telemetry.MetricShardEscalations)
	movesBefore, trainsBefore := len(inst.sys.Movements()), len(inst.sys.TrainLog())
	// Half the measuring time goes to the traced window, the other half
	// to the reference pass replaying the same number of runs.
	w, err := inst.measure(cfg.seconds/2, cfg.fixedRuns)
	if err != nil {
		inst.sys.Close()
		return nil, err
	}
	res := &passResult{Workload: s.name, Seed: in.seed, Traced: true, Metrics: map[string]metric{}}
	res.Violations = inst.check()
	res.Digest, res.Records = layoutDigest(inst.sys.Layout()), inst.sys.Telemetry()
	res.Runs, res.Cycles, res.SimGBps = w.runs, w.cycles, w.simThroughputGBps()
	skipped := len(inst.sys.Skipped())
	moves, trains := inst.sys.Movements()[movesBefore:], inst.sys.TrainLog()[trainsBefore:]
	rows := histogramSum(counts, telemetry.MetricInferenceBatchSize) - rowsBefore
	escalations := counterValue(counts, telemetry.MetricShardEscalations) - escBefore
	if err := inst.sys.Close(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("close: %v", err))
	}
	if cfg.traceOut != "" {
		if err := t.writeJSON(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	ref, err := untracedPass(s, in, passConfig{fixedRuns: w.runs, setups: 1, dir: cfg.dir, probes: cfg.probes})
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if ref.Digest != res.Digest {
		res.Violations = append(res.Violations, fmt.Sprintf("traced pass ended with layout %s, facade pass with %s", res.Digest, ref.Digest))
	}
	if ref.Records != res.Records {
		res.Violations = append(res.Violations, fmt.Sprintf("traced pass recorded %d accesses, facade pass %d", res.Records, ref.Records))
	}
	if ref.SimGBps != res.SimGBps {
		res.Violations = append(res.Violations, fmt.Sprintf("traced pass simulated %v GB/s, facade pass %v", res.SimGBps, ref.SimGBps))
	}
	res.Violations = append(res.Violations, ref.Violations...)
	res.Attempted = inst.runs + inst.due + ref.Attempted
	res.Failed = inst.runErrs + skipped + len(res.Violations) + ref.Failed - len(ref.Violations)

	m := res.Metrics
	cycles := float64(w.cycles)
	totals, rootWall := t.aggregate()
	var selfSum int64
	for _, name := range spanNames {
		agg := totals[name]
		if agg == nil {
			agg = &spanTotals{}
		}
		selfSum += agg.self
		m[name+".self_ms_per_cycle"] = metric{float64(agg.self) / 1e6 / cycles, "ms", int(agg.calls)}
		m[name+".calls_per_cycle"] = metric{float64(agg.calls) / cycles, "count", 0}
	}
	if selfSum != rootWall {
		res.Violations = append(res.Violations, fmt.Sprintf("span self times sum to %d ns, root spans to %d ns", selfSum, rootWall))
		res.Failed++
	}
	m["trace.self_sum_over_wall"] = metric{float64(selfSum) / float64(w.wall.Nanoseconds()), "ratio", 0}

	var moved, explored int
	for _, mv := range moves {
		moved += mv.Moved
		explored += mv.Random
	}
	var samples int
	var trainNs int64
	for _, tr := range trains {
		samples += tr.Samples
		trainNs += tr.Duration.Nanoseconds()
	}
	// The engine's own clock around every fit: the only view of training
	// inside the sharded coordinator, whose model cannot be decorated.
	m["core.train_ms_per_cycle"] = metric{float64(trainNs) / 1e6 / cycles, "ms", len(trains)}
	m["core.rows_scored_per_cycle"] = metric{rows / cycles, "count", 0}
	m["core.files_moved_per_cycle"] = metric{float64(moved) / cycles, "count", 0}
	m["core.explored_per_cycle"] = metric{float64(explored) / cycles, "count", 0}
	m["core.shard_escalations_per_cycle"] = metric{escalations / cycles, "count", 0}
	if len(trains) > 0 {
		m["nn.train_samples_per_fit"] = metric{float64(samples) / float64(len(trains)), "count", 0}
	}
	if calls := ts.queryCalls.Load(); calls > 0 {
		m["replaydb.rows_per_query"] = metric{float64(ts.queryRows.Load()) / float64(calls), "count", 0}
	}
	// Everything the facade pass measured rides along; the declaration
	// decides which of it is reported as per-layer.
	for name, v := range ref.Metrics {
		m[name] = v
	}
	refCycle := ref.Metrics["cycle_ms_p50"].Value
	if refCycle > 0 {
		m["trace.overhead_pct"] = metric{(percentile(w.cycleMs, 0.5)/refCycle - 1) * 100, "%", len(w.cycleMs)}
	}
	noop, err := noopThroughput(s, in, ref.skipRuns, w.runs)
	if err != nil {
		return nil, fmt.Errorf("noop replay: %w", err)
	}
	if noop > 0 {
		m["policy.gain_vs_noop"] = metric{res.SimGBps / noop, "ratio", 0}
	}
	if cfg.probes > 0 {
		shape := probeShape{spec: s, in: in, records: res.Records, snapshot: ref.snapshot, dir: cfg.dir, round: cfg.probes}
		if err := runProbes(shape, m); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return res, nil
}
