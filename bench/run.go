package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"geomancy"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
)

// warmupCycles is how many decision cycles precede the measurement window:
// they contain the exhaustive first scoring pass and the cache fill, which
// users pay once, so they are reported as set-up time instead.
const warmupCycles = 2

// restoreSamples is how many times the closed deployed-ingest system is
// restored from its checkpoint directory and WAL.
const restoreSamples = 3

// instance is one system under measurement plus the bookkeeping the output
// checks need.
type instance struct {
	spec    spec
	in      inputs
	paths   paths
	sys     system
	cluster *storagesim.Cluster
	metrics *telemetry.Registry
	tracer  *tracer

	runs     int   // Run calls so far
	accesses int64 // sum of RunStats.Accesses so far
	due      int   // decision cycles the cadence called for so far
	runErrs  int
}

// newInstance builds the system: the public facade when t is nil, the
// decorated re-assembly otherwise. dir holds the instance's WAL and
// checkpoints when the workload persists anything.
func newInstance(s spec, in inputs, dir string, t *tracer) (*instance, error) {
	inst := &instance{spec: s, in: in, tracer: t}
	if s.wal || s.checkpoint {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if s.wal {
			inst.paths.wal = filepath.Join(dir, "replay.wal")
		}
		// The traced pass has no facade and so no SaveCheckpoint.
		if s.checkpoint && t == nil {
			inst.paths.ckptDir = filepath.Join(dir, "ckpt")
		}
	}
	if s.telemetry {
		inst.metrics = geomancy.NewMetrics()
	}
	if t != nil {
		ts, err := newTracedSystem(s, in, inst.paths, inst.metrics, t)
		if err != nil {
			return nil, err
		}
		inst.sys, inst.cluster = ts, ts.cluster
		return inst, nil
	}
	sys, err := geomancy.New(s.options(in, inst.paths, inst.metrics, func(c *storagesim.Cluster) { inst.cluster = c })...)
	if err != nil {
		return nil, err
	}
	inst.sys = sys
	return inst, nil
}

// step issues one Run call and reports whether the cadence called for a
// decision in it.
func (inst *instance) step() (st geomancy.RunStats, wall time.Duration, due bool, err error) {
	t0 := time.Now()
	st, err = inst.sys.Run()
	wall = time.Since(t0)
	if err != nil {
		inst.runErrs++
		return st, wall, false, err
	}
	due = inst.runs >= inst.spec.bootstrap && (st.Run+1)%inst.spec.cooldown == 0
	inst.runs++
	inst.accesses += int64(st.Accesses)
	if due {
		inst.due++
	}
	return st, wall, due, nil
}

// warmUp runs the bootstrap runs and the warm-up cycles.
func (inst *instance) warmUp() error {
	for inst.due < warmupCycles {
		if _, _, _, err := inst.step(); err != nil {
			return fmt.Errorf("warm-up run %d: %w", inst.runs, err)
		}
	}
	return nil
}

// window is what one measurement window recorded.
type window struct {
	wall      time.Duration
	runs      int
	cycles    int
	accesses  int64
	cycleMs   []float64 // wall time of each Run call that held a decision
	accessUs  []float64 // per non-decision Run call: wall time / accesses
	ckptMs    []float64
	ckptFails int
	tpSum     float64 // sum over runs of mean simulated throughput x accesses

	allocBytes, mallocs, gcPauseNs uint64
	rssMB, liveHeapMB              float64
}

// measure runs the measurement window: until seconds have elapsed (closing
// on a cycle boundary), or for exactly fixedRuns Run calls when positive.
func (inst *instance) measure(seconds float64, fixedRuns int) (*window, error) {
	w := &window{}
	facade, _ := inst.sys.(*geomancy.System)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst.tracer.enable(true)
	start := time.Now()
	for {
		st, wall, due, err := inst.step()
		if err != nil {
			return nil, fmt.Errorf("window run %d: %w", inst.runs, err)
		}
		w.runs++
		w.accesses += int64(st.Accesses)
		w.tpSum += st.MeanThroughput * float64(st.Accesses)
		if due {
			w.cycles++
			w.cycleMs = append(w.cycleMs, float64(wall)/1e6)
			if inst.paths.ckptDir != "" && facade != nil {
				t0 := time.Now()
				if _, err := facade.SaveCheckpoint(); err != nil {
					w.ckptFails++
				}
				w.ckptMs = append(w.ckptMs, float64(time.Since(t0))/1e6)
			}
		} else if st.Accesses > 0 {
			w.accessUs = append(w.accessUs, float64(wall)/1e3/float64(st.Accesses))
		}
		if w.runs == memorySampleRuns(inst.spec) {
			w.sampleMemory()
		}
		if fixedRuns > 0 {
			if w.runs >= fixedRuns {
				break
			}
		} else if due && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	w.wall = time.Since(start)
	inst.tracer.enable(false)
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
	w.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	if w.rssMB == 0 {
		w.sampleMemory()
	}
	return w, nil
}

// sampleMemory records the resident-set high-water mark and, after a
// forced collection, the live heap.
func (w *window) sampleMemory() {
	w.rssMB = peakRSSMB()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.liveHeapMB = float64(ms.HeapAlloc) / 1e6
}

// memorySampleRuns is the window run count at which the memory metrics are
// sampled. The replay database grows with every access, so memory read at
// the end of a timed window would rise whenever the system got faster;
// sampling at a fixed amount of work keeps the numbers comparable. Windows
// shorter than this (smoke scale, slow machines) sample at their end.
func memorySampleRuns(s spec) int {
	switch {
	case s.distributed:
		return 120
	case s.opsPerRun > 0:
		return 40
	}
	return 8
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func (w *window) simThroughputGBps() float64 {
	if w.accesses == 0 {
		return 0
	}
	return w.tpSum / float64(w.accesses) / 1e9
}

// layoutDigest is an order-independent fingerprint of a layout.
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

// check verifies the system's outputs after the window, returning one
// line per violation.
func (inst *instance) check() []string {
	var bad []string
	layout := inst.sys.Layout()
	if len(layout) != len(inst.in.files) {
		bad = append(bad, fmt.Sprintf("layout holds %d files, working set has %d", len(layout), len(inst.in.files)))
	}
	resident := make(map[string]int64)
	for _, f := range inst.in.files {
		dev, ok := layout[f.ID]
		if !ok {
			bad = append(bad, fmt.Sprintf("file %d missing from layout", f.ID))
			continue
		}
		if inst.cluster.Device(dev) == nil {
			bad = append(bad, fmt.Sprintf("file %d maps to unknown device %q", f.ID, dev))
			continue
		}
		resident[dev] += f.Size
	}
	for _, name := range inst.cluster.DeviceNames() {
		if used := inst.cluster.Device(name).Used(); used != resident[name] {
			bad = append(bad, fmt.Sprintf("device %s: used %d bytes, resident files sum to %d", name, used, resident[name]))
		}
	}
	if got := int64(inst.sys.Telemetry()); got != inst.accesses {
		bad = append(bad, fmt.Sprintf("replay database holds %d records, runs reported %d accesses", got, inst.accesses))
	}
	made, skipped := len(inst.sys.Movements()), len(inst.sys.Skipped())
	if made != inst.due-skipped {
		bad = append(bad, fmt.Sprintf("%d decisions made, %d due - %d skipped", made, inst.due, skipped))
	}
	return bad
}

// restoreCheck runs after the live system is closed: it restores from the checkpoint directory and WAL restoreSamples times,
// timing each, and compares every restored system with the closed one.
func (inst *instance) restoreCheck(layout map[int64]string, records int) (ms []float64, fails int, bad []string) {
	for i := 0; i < restoreSamples; i++ {
		var reg *geomancy.Metrics
		if inst.spec.telemetry {
			reg = geomancy.NewMetrics()
		}
		opts := inst.spec.options(inst.in, inst.paths, reg, nil)
		t0 := time.Now()
		sys, err := geomancy.RestoreLatest(inst.paths.ckptDir, opts...)
		ms = append(ms, float64(time.Since(t0))/1e6)
		if err != nil {
			fails++
			bad = append(bad, fmt.Sprintf("restore %d: %v", i, err))
			continue
		}
		if !reflect.DeepEqual(sys.Layout(), layout) {
			bad = append(bad, fmt.Sprintf("restore %d: layout differs from the closed system's", i))
		}
		if sys.Telemetry() != records {
			bad = append(bad, fmt.Sprintf("restore %d: %d records, closed system had %d", i, sys.Telemetry(), records))
		}
		if err := sys.Close(); err != nil {
			bad = append(bad, fmt.Sprintf("restore %d: close: %v", i, err))
		}
	}
	return ms, fails, bad
}

// noopThroughput replays the workload with no placement policy at all —
// what the "noop" policy yields — and returns the mean simulated
// throughput (GB/s) over the runs that fall in the window.
func noopThroughput(s spec, in inputs, skipRuns, windowRuns int) (float64, error) {
	cluster, err := storagesim.NewCluster(in.profiles, storagesim.Config{Seed: in.seed})
	if err != nil {
		return 0, err
	}
	wl, err := s.buildWorkload(cluster, in.files, in.seed)
	if err != nil {
		return 0, err
	}
	if err := wl.SpreadEvenly(cluster.DeviceNames()); err != nil {
		return 0, err
	}
	var sum float64
	var n int64
	for r := 0; r < skipRuns+windowRuns; r++ {
		st, err := wl.RunOnce(nil)
		if err != nil {
			return 0, err
		}
		if r >= skipRuns {
			sum += st.MeanThroughput * float64(st.Accesses)
			n += int64(st.Accesses)
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n) / 1e9, nil
}
