package main

import (
	"fmt"
	"runtime"

	"geomancy"
	"geomancy/internal/generator"
	"geomancy/internal/rng"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
)

// spec is one benchmark workload: the inputs it generates from the seed and
// the system configuration it is run under. Every field is fixed; the only
// thing that varies between runs of one workload is the seed.
type spec struct {
	name string

	// population: devices == 0 selects the paper's six-mount Bluesky
	// cluster with the 24-file BELLE II set, otherwise a synthetic
	// warehouse of that many devices in eight hardware classes.
	devices, files int
	// opsPerRun > 0 drives a scenario.Core workload with that many
	// accesses per run; 0 drives the paper's BELLE II suite.
	opsPerRun    int
	readFraction float64
	ingest       bool

	policy                       string
	model, window, epochs        int
	cooldown, bootstrap          int
	topK, shards                 int
	distributed, wal, checkpoint bool
	telemetry                    bool

	// smoke-scale overrides (the tier-1 smoke test): a population small
	// enough that two cycles through both passes take well under a second.
	toyDevices, toyFiles, toyOps, toyEpochs int
}

// The four workloads. Each exists to put a different layer on the blocking
// path (and to bypass another's): see README.md for the full rationale and
// BENCHMARK.json for the one-line "why" of each.
var specs = []spec{
	{
		// Training is the cycle; scoring is 144 rows.
		name:   "paper-retrain",
		policy: "geomancy", model: 1, window: 2000, epochs: 4, cooldown: 2, bootstrap: 40,
		toyEpochs: 2,
	},
	{
		// Scoring (gather, forward GEMM, select) and replaydb queries are
		// the cycle; the small training window keeps the fit out of the way.
		name:    "warehouse-topk",
		devices: 64, files: 2048, opsPerRun: 2048, readFraction: 0.95,
		policy: "geomancy", model: 1, window: 64, epochs: 1, cooldown: 2, bootstrap: 4, topK: 2,
		toyDevices: 16, toyFiles: 96, toyOps: 128, toyEpochs: 1,
	},
	{
		// The same scoring layer, through the sharded coordinator.
		name:    "wide-sharded",
		devices: 256, files: 4096, opsPerRun: 4096, readFraction: 0.95,
		policy: "geomancy", model: 1, window: 16, epochs: 1, cooldown: 2, bootstrap: 4, topK: 2, shards: 16,
		toyDevices: 32, toyFiles: 128, toyOps: 128, toyEpochs: 1,
	},
	{
		// The agents plane, WAL appends, checkpoints and online updates.
		name:      "deployed-ingest",
		opsPerRun: 4096, readFraction: 0.3, ingest: true,
		policy: "online-geomancy", model: 1, window: 600, epochs: 4, cooldown: 3, bootstrap: 5,
		distributed: true, wal: true, checkpoint: true, telemetry: true,
		toyOps: 128, toyEpochs: 1,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// toy shrinks the workload to smoke-test scale, keeping its structure
// (policy, shards, agents plane, WAL, checkpointing).
func (s spec) toy() spec {
	if s.devices > 0 {
		s.devices, s.files = s.toyDevices, s.toyFiles
		if s.shards > 0 {
			s.shards = 4
		}
	}
	if s.opsPerRun > 0 {
		s.opsPerRun = s.toyOps
	}
	s.epochs = s.toyEpochs
	if s.window > 200 {
		s.window = 200
	}
	return s
}

// inputs is everything the system under test is handed: generated from the
// seed here, never inside the system.
type inputs struct {
	seed     int64
	profiles []storagesim.DeviceProfile
	files    []trace.BelleFile
}

// generate derives the workload's devices and files from seed through
// internal/rng streams (one per input kind, so populations of different
// sizes do not shift each other's draws).
func (s spec) generate(seed int64) inputs {
	in := inputs{seed: seed}
	if s.devices == 0 {
		in.profiles = storagesim.BlueskyProfiles()
		in.files = trace.BelleFileSet(seed)
		return in
	}
	dr := rng.New(rng.Split(seed, 0))
	in.profiles = make([]storagesim.DeviceProfile, s.devices)
	for i := range in.profiles {
		// Eight hardware classes, class c clustered around (8-c) GB/s
		// with a per-device spread so top-k shortlists have a ranking to
		// find (the bench_test.go warehouse population, plus seeded
		// jitter and mild noise so the model has something to learn).
		class := i % 8
		speed := (float64(8-class)*1e9 + float64(i/8)*3e7) * (0.95 + 0.1*dr.Float64())
		in.profiles[i] = storagesim.DeviceProfile{
			Name:         fmt.Sprintf("dev%03d", i),
			Class:        fmt.Sprintf("class%d", class),
			ReadBW:       speed,
			WriteBW:      0.8 * speed,
			LatencyFloor: 0.002,
			Noise:        0.15,
			Capacity:     1e13,
		}
	}
	fr := rng.New(rng.Split(seed, 1))
	in.files = make([]trace.BelleFile, s.files)
	for i := range in.files {
		in.files[i] = trace.BelleFile{
			ID:   int64(i + 1),
			Path: fmt.Sprintf("/wh/set%03d/f%05d.dat", i/64, i),
			Size: int64(1e8 + fr.Float64()*4e8),
		}
	}
	return in
}

// workloadName is the scenario name the workload reports (it is recorded
// in checkpoints, so restore must rebuild under the same name).
func (s spec) workloadName() string {
	if s.opsPerRun == 0 {
		return "belle"
	}
	return "bench-" + s.name
}

// buildWorkload constructs the driven workload over cluster: the paper's
// BELLE II suite, or a scenario.Core with the spec's mix and a zipfian
// chooser.
func (s spec) buildWorkload(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (scenario.Workload, error) {
	if s.opsPerRun == 0 {
		return scenario.New("belle", cluster, files, seed)
	}
	return scenario.NewCore(scenario.CoreConfig{
		Name:         s.workloadName(),
		OpsPerRun:    s.opsPerRun,
		ReadFraction: s.readFraction,
		Chooser:      generator.NewZipfian(int64(len(files)), generator.ZipfianTheta),
		Ingest:       s.ingest,
	}, cluster, files, seed)
}

// parallelism is the engine worker bound every workload runs under.
func parallelism() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// paths names the on-disk state of one system instance (deployed-ingest
// only); empty strings select memory.
type paths struct {
	wal, ckptDir string
}

// options is the facade configuration of the workload. built receives the
// cluster the system assembles, so the bench can check its accounting.
func (s spec) options(in inputs, p paths, metrics *geomancy.Metrics, built func(*storagesim.Cluster)) []geomancy.Option {
	opts := []geomancy.Option{
		geomancy.WithSeed(in.seed),
		geomancy.WithDevices(in.profiles),
		geomancy.WithFiles(in.files),
		geomancy.WithWorkload(func(cluster *storagesim.Cluster, files []geomancy.File, seed int64) (geomancy.Workload, error) {
			if built != nil {
				built(cluster)
			}
			return s.buildWorkload(cluster, files, seed)
		}),
		geomancy.WithPolicy(s.policy),
		geomancy.WithModel(s.model),
		geomancy.WithTrainingWindow(s.window),
		geomancy.WithEpochs(s.epochs),
		geomancy.WithCooldown(s.cooldown),
		geomancy.WithBootstrapRuns(s.bootstrap),
		geomancy.WithParallelism(parallelism()),
	}
	if s.topK > 0 {
		opts = append(opts, geomancy.WithTopK(s.topK))
	}
	if s.shards > 0 {
		opts = append(opts, geomancy.WithShards(s.shards))
	}
	if s.distributed {
		opts = append(opts, geomancy.WithDistributed())
	}
	if p.wal != "" {
		opts = append(opts, geomancy.WithReplayDB(p.wal))
	}
	if p.ckptDir != "" {
		opts = append(opts, geomancy.WithCheckpointDir(p.ckptDir))
	}
	if metrics != nil {
		opts = append(opts, geomancy.WithTelemetry(metrics))
	}
	return opts
}
