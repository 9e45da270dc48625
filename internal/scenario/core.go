package scenario

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"geomancy/internal/generator"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// Phase overrides the operation mix from a given run onward; the last
// phase whose StartRun is ≤ the current run counter is active. Scenarios
// use phases to switch regimes mid-experiment (ingest burst, then
// read-mostly analysis) without a second workload object.
type Phase struct {
	// StartRun is the first run (0-based) the phase applies to.
	StartRun int
	// ReadFraction replaces CoreConfig.ReadFraction while active.
	ReadFraction float64
}

// CoreConfig parameterizes the Core workload: operation count and mix,
// the key-chooser distribution, access-size bounds, and the optional
// regime modifiers (hot-set rotation, tenant alternation, ingest mode,
// phase schedule). The zero value is not runnable; NewCore validates and
// fills defaults.
type CoreConfig struct {
	// Name is the scenario name reported by Workload.Name.
	Name string
	// OpsPerRun is the number of accesses per run (default 360,
	// matching the BELLE II suite's expected per-run access count).
	OpsPerRun int
	// ReadFraction is the probability an operation reads (the rest
	// write). Default 0.95.
	ReadFraction float64
	// FracLo and FracHi bound the uniformly drawn fraction of the file
	// touched per access. Defaults 0.3 and 1.0.
	FracLo, FracHi float64
	// Chooser draws file indices (reduced mod the population size). It
	// is the scenario's distribution: zipfian, hotspot, counter, …
	Chooser generator.Generator
	// ShiftEvery, when positive, rotates the index space every
	// ShiftEvery runs by ShiftFrac of the population — the hot set
	// migrates across the file set as a pure function of the run
	// counter.
	ShiftEvery int
	// ShiftFrac is the fraction of the population each rotation hops.
	ShiftFrac float64
	// TenantPeriod, when positive, splits the population into two
	// tenant halves and alternates which half receives TenantShare of
	// the operations every TenantPeriod runs — a diurnal pattern.
	TenantPeriod int
	// TenantShare is the active tenant's share of operations (default
	// 0.9).
	TenantShare float64
	// Ingest, when true, makes writes append at a moving head (a
	// counter over the index space) while reads trail it by the
	// Chooser's draw — YCSB's "latest" pattern over files.
	Ingest bool
	// Phases optionally re-parameterizes the mix over time; entries
	// must be sorted by StartRun.
	Phases []Phase
}

// Core is the configurable scenario workload: each run performs
// OpsPerRun accesses whose targets come from a serializable generator
// chain over one checkpointable RNG stream. Every regime modifier is a
// pure function of (config, run counter, stream), so a Core restored
// from MarshalState continues bit-identically.
type Core struct {
	cfg CoreConfig //geomancy:ephemeral construction config, re-supplied by NewCore on restore
	//geomancy:ephemeral file set and cluster binding, re-supplied by NewCore on restore; the cluster serializes as the checkpoint's ClusterState
	workload.Set
	rng     *rng.RNG
	runs    int
	chooser generator.Generator
	// head is the ingest write head (Ingest mode only).
	head *generator.Counter
}

// NewCore builds a Core workload over cluster and files.
func NewCore(cfg CoreConfig, cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (*Core, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("scenario: core workload needs a name")
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("scenario %s: empty file population", cfg.Name)
	}
	if cfg.Chooser == nil {
		return nil, fmt.Errorf("scenario %s: nil chooser generator", cfg.Name)
	}
	if cfg.OpsPerRun <= 0 {
		cfg.OpsPerRun = 360
	}
	if cfg.ReadFraction <= 0 || cfg.ReadFraction > 1 {
		cfg.ReadFraction = 0.95
	}
	if cfg.FracLo <= 0 {
		cfg.FracLo = 0.3
	}
	if cfg.FracHi <= 0 || cfg.FracHi > 1 {
		cfg.FracHi = 1.0
	}
	if cfg.FracHi < cfg.FracLo {
		cfg.FracHi = cfg.FracLo
	}
	if cfg.TenantShare <= 0 || cfg.TenantShare > 1 {
		cfg.TenantShare = 0.9
	}
	for i := 1; i < len(cfg.Phases); i++ {
		if cfg.Phases[i].StartRun <= cfg.Phases[i-1].StartRun {
			return nil, fmt.Errorf("scenario %s: phases not sorted by StartRun", cfg.Name)
		}
	}
	c := &Core{
		cfg:     cfg,
		Set:     workload.NewSet(cluster, files),
		rng:     rng.New(seed),
		chooser: cfg.Chooser,
	}
	if cfg.Ingest {
		c.head = generator.NewCounter(0)
	}
	return c, nil
}

// Name implements Workload.
func (c *Core) Name() string { return c.cfg.Name }

// Runs implements Workload.
func (c *Core) Runs() int { return c.runs }

// readFraction returns the mix in effect for the current run: the last
// phase whose StartRun has been reached, or the base config.
func (c *Core) readFraction() float64 {
	rf := c.cfg.ReadFraction
	for _, p := range c.cfg.Phases {
		if c.runs >= p.StartRun {
			rf = p.ReadFraction
		}
	}
	return rf
}

// pickIndex draws the target file index for one operation. Draw order
// within an operation is fixed (write decision, then index, then
// fraction); every modifier below is deterministic in (runs, stream).
func (c *Core) pickIndex(write bool) int {
	n := int64(len(c.Files()))
	if c.cfg.Ingest {
		if write {
			// Writes append at the moving head (wrapping over the
			// population: files are overwritten oldest-first).
			return int(c.head.Next(c.rng) % n)
		}
		// Reads trail the head by the chooser's draw — the "latest"
		// pattern: recently written files are the hottest.
		lag := c.chooser.Next(c.rng) % n
		idx := (c.head.Last() - lag) % n
		if idx < 0 {
			idx += n
		}
		return int(idx)
	}
	if c.cfg.TenantPeriod > 0 {
		half := n / 2
		if half < 1 {
			half = 1
		}
		active := int64((c.runs / c.cfg.TenantPeriod) % 2)
		tenant := active
		if c.rng.Float64() >= c.cfg.TenantShare {
			tenant = 1 - active
		}
		idx := c.chooser.Next(c.rng) % half
		return int((tenant*half + idx) % n)
	}
	idx := c.chooser.Next(c.rng) % n
	if c.cfg.ShiftEvery > 0 {
		hop := int64(c.cfg.ShiftFrac * float64(n))
		if hop < 1 {
			hop = 1
		}
		offset := int64(c.runs/c.cfg.ShiftEvery) * hop
		idx = (idx + offset) % n
	}
	return int(idx)
}

// RunOnce implements Workload.
func (c *Core) RunOnce(obs workload.Observer) (workload.RunStats, error) {
	return c.RunOnceContext(context.Background(), obs)
}

// RunOnceContext implements Workload: OpsPerRun accesses drawn from the
// generator chain. A cancelled run returns Set.Run's partial statistics
// and error and does not count as completed.
func (c *Core) RunOnceContext(ctx context.Context, obs workload.Observer) (workload.RunStats, error) {
	rf := c.readFraction()
	stats, err := c.Run(ctx, obs, 1, c.runs, c.cfg.OpsPerRun, func(int) (int, float64, bool) {
		write := c.rng.Float64() >= rf
		file := c.pickIndex(write)
		return file, c.cfg.FracLo + (c.cfg.FracHi-c.cfg.FracLo)*c.rng.Float64(), write
	})
	if err == nil {
		c.runs++
	}
	return stats, err
}

// coreState is the gob-serialized snapshot of a Core workload: the RNG
// register, run counter, and every generator's registers. Configuration
// and population are reconstructed from the scenario name on restore.
type coreState struct {
	RNG     uint64
	Runs    int
	Chooser generator.State
	Head    generator.State
	HasHead bool
}

// MarshalState implements Workload.
func (c *Core) MarshalState() ([]byte, error) {
	st := coreState{
		RNG:     c.rng.State(),
		Runs:    c.runs,
		Chooser: c.chooser.State(),
	}
	if c.head != nil {
		st.Head = c.head.State()
		st.HasHead = true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("scenario %s: marshaling state: %w", c.cfg.Name, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements Workload. The blob comes from outside the
// program, so it is checked whole before anything is assigned: a negative
// run counter, or a negative ingest head or counter chooser (which
// generator.Counter refuses), would index the file set out of range on the
// next run, and a refused blob leaves the workload as it was.
func (c *Core) UnmarshalState(data []byte) error {
	var st coreState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("scenario %s: unmarshaling state: %w", c.cfg.Name, err)
	}
	if st.Runs < 0 {
		return fmt.Errorf("scenario %s: snapshot run counter %d is negative", c.cfg.Name, st.Runs)
	}
	var head *generator.Counter
	if st.HasHead {
		if c.head == nil {
			return fmt.Errorf("scenario %s: snapshot has an ingest head but the scenario does not", c.cfg.Name)
		}
		head = generator.NewCounter(0)
		if err := head.RestoreState(st.Head); err != nil {
			return fmt.Errorf("scenario %s: restoring ingest head: %w", c.cfg.Name, err)
		}
	} else if c.head != nil {
		return fmt.Errorf("scenario %s: snapshot lacks the ingest head", c.cfg.Name)
	}
	// The chooser checks its snapshot before it assigns, so it is the last
	// step that can fail.
	if err := c.chooser.RestoreState(st.Chooser); err != nil {
		return fmt.Errorf("scenario %s: restoring chooser: %w", c.cfg.Name, err)
	}
	if head != nil {
		c.head = head
	}
	c.rng.SetState(st.RNG)
	c.runs = st.Runs
	return nil
}
