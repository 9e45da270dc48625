// Package workload drives the BELLE II-style Monte-Carlo workload of the
// paper's live experiments (§IV) against the simulated cluster: 24 ROOT
// files between 583 KB and 1.1 GB, read-heavy, each file accessed 10–20
// times in succession, acting "as a suite of many applications reading and
// writing many files individually".
//
// Before each access the runner consults its Locator — the paper's
// configuration file that Geomancy rewrites after data movements — so
// layout changes take effect for subsequent reads without restarting the
// workload.
package workload

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"

	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
)

// Observer receives the telemetry of each access, tagged with the workload
// id and run index; monitoring agents subscribe here.
type Observer func(res storagesim.AccessResult, workloadID, run int)

// MetricsObserver returns an Observer that feeds per-device access
// telemetry into reg: latency and throughput histograms plus access/byte
// counters, all labeled {device="..."}. Per-device metric handles are
// cached so the per-access cost is a few atomic adds. Returns nil for a
// nil registry (a nil Observer is ignored by every caller).
func MetricsObserver(reg *telemetry.Registry) Observer {
	if reg == nil {
		return nil
	}
	type devMetrics struct {
		accesses *telemetry.Counter
		bytes    *telemetry.Counter
		latency  *telemetry.Histogram
		tput     *telemetry.Histogram
	}
	var mu sync.Mutex
	cache := make(map[string]*devMetrics)
	return func(res storagesim.AccessResult, workloadID, run int) {
		mu.Lock()
		m := cache[res.Device]
		if m == nil {
			dev := telemetry.L("device", res.Device)
			m = &devMetrics{
				accesses: reg.Counter(telemetry.MetricAccessesTotal, dev),
				bytes:    reg.Counter(telemetry.MetricAccessBytesTotal, dev),
				latency:  reg.Histogram(telemetry.MetricAccessLatency, telemetry.DefLatencyBuckets, dev),
				tput:     reg.Histogram(telemetry.MetricAccessThroughput, telemetry.DefThroughputBuckets, dev),
			}
			cache[res.Device] = m
		}
		mu.Unlock()
		m.accesses.Inc()
		m.bytes.Add(uint64(res.BytesRead + res.BytesWritten))
		m.latency.Observe(res.End - res.Start)
		m.tput.Observe(res.Throughput)
	}
}

// Set is a working set on a cluster: what every workload has whatever its
// access pattern — initial placement, layout application, and the body of
// a run. The BELLE II Runner and scenario.Core embed it and differ only in
// where a run's next (file, fraction, write) comes from.
type Set struct {
	files   []trace.BelleFile
	cluster *storagesim.Cluster
}

// NewSet binds files to cluster.
func NewSet(cluster *storagesim.Cluster, files []trace.BelleFile) Set {
	return Set{files: files, cluster: cluster}
}

// Files returns the working set.
func (s *Set) Files() []trace.BelleFile { return s.files }

// SpreadEvenly places the working set round-robin across the given devices
// — the paper's "basic spread policy (evenly across all available mounts)"
// used as the starting layout for every experiment.
func (s *Set) SpreadEvenly(devices []string) error {
	if len(devices) == 0 {
		return fmt.Errorf("workload: no devices to spread across")
	}
	for i, f := range s.files {
		dev := devices[i%len(devices)]
		if err := s.cluster.PlaceFile(f.ID, f.Path, f.Size, dev); err != nil {
			return fmt.Errorf("workload: placing %s on %s: %w", f.Path, dev, err)
		}
	}
	return nil
}

// ApplyLayout re-homes files per the layout using cluster moves, returning
// the movements performed. Files absent from the layout stay put.
func (s *Set) ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	var moves []storagesim.MoveResult
	for _, f := range s.files {
		dst, ok := layout[f.ID]
		if !ok {
			continue
		}
		cur, err := s.cluster.File(f.ID)
		if err != nil {
			return moves, err
		}
		if cur.Device == dst {
			continue
		}
		mv, err := s.cluster.Move(f.ID, dst)
		if err != nil {
			// A single invalid destination must not abort the run;
			// skip the move the way a control agent would log and
			// continue.
			continue
		}
		moves = append(moves, mv)
	}
	return moves, nil
}

// RunStats summarizes one workload run.
type RunStats struct {
	Run            int
	Accesses       int
	Bytes          int64
	MeanThroughput float64
	// Duration is the simulated wall time of the run in seconds.
	Duration float64
	// LatencyP50/P95/P99 are per-access latency percentiles of the run in
	// seconds (YCSB-style measurement, estimated from a fixed-bucket
	// histogram).
	LatencyP50, LatencyP95, LatencyP99 float64
}

// Run performs run number run of workload id: ops accesses, each of the
// file, size fraction and direction next returns for it. next is called
// once per access, in order, after the cancellation check — so a workload
// draws from its stream in access order and a cancelled run draws nothing
// further; it returns the partial statistics together with ctx.Err(). The
// observer (if non-nil) sees every access.
func (s *Set) Run(ctx context.Context, obs Observer, id, run, ops int, next func(op int) (file int, frac float64, write bool)) (RunStats, error) {
	start := s.cluster.Now()
	stats := RunStats{Run: run}
	lat := telemetry.NewHistogram(telemetry.DefLatencyBuckets)
	var tpSum float64
	for op := 0; op < ops; op++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		file, frac, write := next(op)
		f := s.files[file]
		bytes := int64(float64(f.Size) * frac)
		if bytes <= 0 {
			bytes = 1
		}
		var rb, wb int64
		if write {
			wb = bytes
		} else {
			rb = bytes
		}
		res, err := s.cluster.Access(f.ID, rb, wb)
		if err != nil {
			return stats, fmt.Errorf("workload %d run %d: %w", id, run, err)
		}
		stats.Accesses++
		stats.Bytes += rb + wb
		tpSum += res.Throughput
		lat.Observe(res.End - res.Start)
		if obs != nil {
			obs(res, id, run)
		}
	}
	if stats.Accesses > 0 {
		stats.MeanThroughput = tpSum / float64(stats.Accesses)
		stats.LatencyP50 = lat.Quantile(0.50)
		stats.LatencyP95 = lat.Quantile(0.95)
		stats.LatencyP99 = lat.Quantile(0.99)
	}
	stats.Duration = s.cluster.Now() - start
	return stats, nil
}

// Runner executes BELLE II runs against a cluster. It is the original
// hardcoded workload of the reproduction and doubles as the "belle"
// scenario of the workload plane (internal/scenario): every method the
// scenario.Workload interface requires lives here or on the embedded Set.
type Runner struct {
	// ID distinguishes concurrent workloads (experiment 3 runs two).
	//geomancy:ephemeral construction arg, re-supplied by NewRunner on restore
	ID int

	//geomancy:ephemeral file set and cluster binding, re-supplied by NewRunner on restore; the cluster serializes as the checkpoint's ClusterState
	Set
	rng  *rng.RNG
	runs int
}

// NewRunner returns a workload runner for the given file set.
func NewRunner(cluster *storagesim.Cluster, files []trace.BelleFile, id int, seed int64) *Runner {
	return &Runner{ID: id, Set: NewSet(cluster, files), rng: rng.New(seed)}
}

// Name identifies the workload in scenario registries and checkpoints.
func (r *Runner) Name() string { return "belle" }

// RunOnce executes one workload run: every file visited in random order,
// each accessed 10–20 times in succession. The observer (if non-nil) sees
// every access.
func (r *Runner) RunOnce(obs Observer) (RunStats, error) {
	return r.RunOnceContext(context.Background(), obs)
}

// RunOnceContext is RunOnce with cancellation: a cancelled run returns
// Set.Run's partial statistics and error without counting as completed.
func (r *Runner) RunOnceContext(ctx context.Context, obs Observer) (RunStats, error) {
	seq := trace.BelleRun(r.rng.Rand, len(r.files))
	stats, err := r.Run(ctx, obs, r.ID, r.runs, len(seq), func(op int) (int, float64, bool) {
		return seq[op].FileIndex, seq[op].Fraction, seq[op].Write
	})
	if err == nil {
		r.runs++
	}
	return stats, err
}

// Runs returns the number of completed runs.
func (r *Runner) Runs() int { return r.runs }

// RunnerState is the serializable snapshot of a runner: the access-order
// stream and the completed-run counter. The file set and cluster binding
// are reconstructed from configuration on restore.
type RunnerState struct {
	RNG  uint64
	Runs int
}

// State captures the runner mid-experiment.
func (r *Runner) State() RunnerState {
	return RunnerState{RNG: r.rng.State(), Runs: r.runs}
}

// RestoreState overwrites the runner's stream and counters with a
// previously captured snapshot.
func (r *Runner) RestoreState(st RunnerState) {
	r.rng.SetState(st.RNG)
	r.runs = st.Runs
}

// MarshalState serializes the runner for checkpoints — the opaque
// workload-state bytes the snapshot plane stores next to the scenario
// name.
func (r *Runner) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.State()); err != nil {
		return nil, fmt.Errorf("workload: marshaling runner state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores a runner from MarshalState output.
func (r *Runner) UnmarshalState(data []byte) error {
	var st RunnerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("workload: unmarshaling runner state: %w", err)
	}
	r.RestoreState(st)
	return nil
}
