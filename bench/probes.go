package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"geomancy/internal/agents"
	"geomancy/internal/checkpoint"
	"geomancy/internal/features"
	"geomancy/internal/generator"
	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/replaydb"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/workload"
)

// Probe fixtures are shaped like the workload but capped, so the whole set
// stays within a few seconds: per-row and per-op costs do not need the
// full batch to be measured.
const (
	probeMaxRows    = 4096
	probeMaxRecords = 100_000
	probeRounds     = 3
)

// probeShape is what the probes size their fixtures from.
type probeShape struct {
	spec     spec
	in       inputs
	records  int    // replay-database records at the end of the window
	snapshot string // a checkpoint of the workload's end state ("" if none)
	dir      string // scratch directory for WAL fixtures
	round    time.Duration
}

// minNs times op(n) — n iterations of the probed call — growing n until a
// round lasts long enough, and returns the fastest ns per iteration over
// probeRounds rounds.
func minNs(round time.Duration, op func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= round/4 || n >= 1<<24 {
			break
		}
		n *= 4
	}
	best := 0.0
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		op(n)
		ns := float64(time.Since(t0)) / float64(n)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// allocsOf reports mallocs and bytes allocated by one call of op.
func allocsOf(op func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func randomMatrix(r *rng.RNG, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Float64()
	}
	return m
}

// candidateRows is the workload's per-cycle scoring batch: every file
// against every device, or against the top-k shortlist (k per class plus
// the current device) when pruning is on.
func (p probeShape) candidateRows() int {
	devs := len(p.in.profiles)
	if p.spec.topK > 0 {
		classes := make(map[string]bool)
		for _, d := range p.in.profiles {
			classes[d.Class] = true
		}
		if short := p.spec.topK*len(classes) + 1; short < devs {
			devs = short
		}
	}
	rows := len(p.in.files) * devs
	if rows > probeMaxRows {
		rows = probeMaxRows
	}
	return rows
}

// runProbes times direct calls into each layer's public functions and
// adds one metric per probe to out.
func runProbes(p probeShape, out map[string]metric) error {
	const z = 6 // the engine's feature count
	r := rng.New(p.in.seed)
	rows := p.candidateRows()
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }

	// mat: the widest GEMM of model 1 (rows x 16Z through 16Z x 8Z) and
	// the two transposed products back-propagation uses.
	a, b := randomMatrix(r, rows, 16*z), randomMatrix(r, 16*z, 8*z)
	dst := mat.New(rows, 8*z)
	put("mat.mul_to.ns_per_row", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mat.MulTo(dst, a, b)
		}
	})/float64(rows), "ns")
	put("mat.parallel_mul_to.ns_per_row", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mat.ParallelMulTo(dst, a, b, parallelism())
		}
	})/float64(rows), "ns")
	grad := randomMatrix(r, rows, 8*z)
	put("mat.mul_trans_a.ns_per_row", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mat.MulTransA(a, grad)
		}
	})/float64(rows), "ns")
	put("mat.mul_trans_b.ns_per_row", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mat.MulTransB(grad, b)
		}
	})/float64(rows), "ns")

	// nn: batched inference over the candidate rows, and one training
	// epoch over a window-sized sample set.
	net, err := nn.BuildModel(p.spec.model, z, r.Rand)
	if err != nil {
		return err
	}
	in := randomMatrix(r, rows, z)
	scratch := &nn.Scratch{Parallelism: parallelism()}
	net.ForwardBatch(in, nil, scratch)
	put("nn.forward_batch.ns_per_row", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			net.ForwardBatch(in, nil, scratch)
		}
	})/float64(rows), "ns")
	mallocs, _ := allocsOf(func() { net.ForwardBatch(in, nil, scratch) })
	put("nn.forward_batch.allocs_per_op", mallocs, "count")

	samples := p.spec.window * len(p.in.profiles)
	if samples > probeMaxRows {
		samples = probeMaxRows
	}
	targets := make([]float64, samples)
	for i := range targets {
		targets[i] = r.Float64()
	}
	ds := nn.NewDataset(randomMatrix(r, samples, z), targets)
	fit := func() {
		if _, err := net.Fit(ds, nn.FitConfig{Epochs: 1, BatchSize: 32, Optimizer: &nn.SGD{LR: 0.05}, Parallelism: parallelism()}); err != nil {
			panic(err)
		}
	}
	put("nn.fit_epoch.ns_per_sample", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			fit()
		}
	})/float64(samples), "ns")
	_, fitBytes := allocsOf(fit)
	put("nn.fit_epoch.bytes_per_sample", fitBytes/float64(samples), "bytes")

	raw := randomMatrix(r, samples, z)
	put("features.minmax_fit_transform.ns_per_row", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			var s features.MinMaxScaler
			s.FitTransform(raw)
		}
	})/float64(samples), "ns")

	if err := probeReplayDB(p, r, put); err != nil {
		return err
	}
	if err := probeCheckpoint(p, put); err != nil {
		return err
	}
	if err := probeAgents(p, r, put); err != nil {
		return err
	}
	return probeSim(p, r, put)
}

// probeRecord synthesizes the i-th telemetry record over the workload's
// own files and devices.
func probeRecord(p probeShape, r *rng.RNG, i int) replaydb.AccessRecord {
	f := p.in.files[r.Intn(len(p.in.files))]
	return replaydb.AccessRecord{
		Time:       float64(i),
		Run:        int32(i / 1024),
		FileID:     f.ID,
		Path:       f.Path,
		Device:     p.in.profiles[r.Intn(len(p.in.profiles))].Name,
		BytesRead:  f.Size / 2,
		OpenTS:     int64(i),
		CloseTS:    int64(i),
		CloseTMS:   500,
		Throughput: 1e9 * (0.5 + r.Float64()),
	}
}

func probeReplayDB(p probeShape, r *rng.RNG, put func(string, float64, string)) error {
	records := p.records
	if records > probeMaxRecords {
		records = probeMaxRecords
	}
	if records < 1024 {
		records = 1024
	}
	fill := func(db *replaydb.DB) error {
		for i := 0; i < records; i++ {
			if _, err := db.AppendAccess(probeRecord(p, r, i)); err != nil {
				return err
			}
		}
		return nil
	}
	mem, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		return err
	}
	defer mem.Close()
	if err := fill(mem); err != nil {
		return err
	}
	rec := probeRecord(p, r, records)
	put("replaydb.append_mem.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := mem.AppendAccess(rec); err != nil {
				panic(err)
			}
		}
	}), "ns")
	nFiles, nDevs := len(p.in.files), len(p.in.profiles)
	put("replaydb.recent_by_file.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mem.RecentByFile(p.in.files[i%nFiles].ID, 8)
		}
	}), "ns")
	put("replaydb.recent_by_device.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mem.RecentByDevice(p.in.profiles[i%nDevs].Name, p.spec.window)
		}
	}), "ns")
	// One run's worth of records back from the head: what a decision
	// cycle asks for.
	back := uint64(2048)
	if p.spec.opsPerRun > 0 {
		back = uint64(p.spec.opsPerRun * p.spec.cooldown)
	}
	since := mem.Watermark()
	if since > back {
		since -= back
	} else {
		since = 0
	}
	put("replaydb.files_changed_since.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			mem.FilesChangedSince(since)
		}
	}), "ns")

	walPath := filepath.Join(p.dir, "probe.wal")
	wal, err := replaydb.Open(replaydb.Options{Path: walPath})
	if err != nil {
		return err
	}
	if err := fill(wal); err != nil {
		wal.Close()
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	openMs := 0.0
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		db, err := replaydb.Open(replaydb.Options{Path: walPath})
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			return err
		}
		if db.Len() != records {
			db.Close()
			return fmt.Errorf("probe WAL replayed %d of %d records", db.Len(), records)
		}
		if i == 0 || ms < openMs {
			openMs = ms
		}
		wal = db
		if i < probeRounds-1 {
			if err := db.Close(); err != nil {
				return err
			}
		}
	}
	put("replaydb.open_wal.ms", openMs, "ms")
	put("replaydb.append_wal.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wal.AppendAccess(rec); err != nil {
				panic(err)
			}
		}
	}), "ns")
	return wal.Close()
}

func probeCheckpoint(p probeShape, put func(string, float64, string)) error {
	if p.snapshot == "" {
		put("checkpoint.write.us_per_op", 0, "us")
		put("checkpoint.read.us_per_op", 0, "us")
		return nil
	}
	snap, err := checkpoint.Load(p.snapshot)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	put("checkpoint.write.us_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := checkpoint.Write(&buf, snap); err != nil {
				panic(err)
			}
		}
	})/1e3, "us")
	blob := buf.Bytes()
	put("checkpoint.read.us_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := checkpoint.Read(bytes.NewReader(blob)); err != nil {
				panic(err)
			}
		}
	})/1e3, "us")
	return nil
}

func probeAgents(p probeShape, r *rng.RNG, put func(string, float64, string)) error {
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	daemon := agents.NewDaemon(db)
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer daemon.Close()
	dev := p.in.profiles[0].Name
	mon, err := agents.NewMonitor(addr, dev, monitorBatchSize)
	if err != nil {
		return err
	}
	defer mon.Close()
	f := p.in.files[0]
	res := storagesim.AccessResult{FileID: f.ID, Path: f.Path, Device: dev, BytesRead: f.Size / 2, End: 0.5, CloseTMS: 500, Throughput: 1e9}
	// One operation is one full batch: monitorBatchSize observes, the last
	// of which ships the batch and waits for the daemon's ack.
	put("agents.report_roundtrip.us_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n*monitorBatchSize; i++ {
			if err := mon.Observe(res, 1, 0); err != nil {
				panic(err)
			}
		}
	})/1e3, "us")
	store, err := agents.DialRemoteStore(addr)
	if err != nil {
		return err
	}
	defer store.Close()
	put("agents.query_roundtrip.us_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			store.RecentByDevice(dev, p.spec.window)
		}
	})/1e3, "us")
	if err := store.Err(); err != nil {
		return err
	}
	control, err := agents.NewControl(addr, func(int64, string) (bool, error) { return false, nil })
	if err != nil {
		return err
	}
	defer control.Close()
	for i := 0; daemon.ControlCount() == 0; i++ {
		if i > 2000 {
			return fmt.Errorf("control agent never registered with the probe daemon")
		}
		time.Sleep(time.Millisecond)
	}
	layout := make(map[int64]string, len(p.in.files))
	for _, f := range p.in.files {
		layout[f.ID] = p.in.profiles[r.Intn(len(p.in.profiles))].Name
	}
	put("agents.push_layout.us_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := daemon.PushLayout(layout); err != nil {
				panic(err)
			}
		}
	})/1e3, "us")
	return nil
}

func probeSim(p probeShape, r *rng.RNG, put func(string, float64, string)) error {
	cluster, err := storagesim.NewCluster(p.in.profiles, storagesim.Config{Seed: p.in.seed})
	if err != nil {
		return err
	}
	devs := cluster.DeviceNames()
	for i, f := range p.in.files {
		if err := cluster.PlaceFile(f.ID, f.Path, f.Size, devs[i%len(devs)]); err != nil {
			return err
		}
	}
	nFiles := len(p.in.files)
	var res storagesim.AccessResult
	put("storagesim.access.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			f := p.in.files[i%nFiles]
			if res, err = cluster.Access(f.ID, f.Size/2, 0); err != nil {
				panic(err)
			}
		}
	}), "ns")
	put("storagesim.move.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			// Shift the target each pass over the files so no move is a
			// same-device no-op.
			if _, err := cluster.Move(p.in.files[i%nFiles].ID, devs[(i%nFiles+i/nFiles+1)%len(devs)]); err != nil {
				panic(err)
			}
		}
	}), "ns")
	zipf := generator.NewZipfian(int64(nFiles), generator.ZipfianTheta)
	put("generator.zipfian_next.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			zipf.Next(r)
		}
	}), "ns")
	obs := workload.MetricsObserver(telemetry.NewRegistry())
	put("telemetry.observe.ns_per_op", minNs(p.round, func(n int) {
		for i := 0; i < n; i++ {
			obs(res, 1, 0)
		}
	}), "ns")
	return nil
}
