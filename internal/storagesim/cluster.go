package storagesim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"geomancy/internal/rng"
)

// FileState tracks one placed file.
type FileState struct {
	ID     int64
	Path   string
	Size   int64
	Device string
}

// AccessResult is the telemetry of one simulated access — exactly what a
// monitoring agent observes on the real system.
type AccessResult struct {
	FileID       int64
	Path         string
	Device       string
	BytesRead    int64
	BytesWritten int64
	// Start and End are virtual-clock seconds.
	Start, End float64
	// OpenTS/OpenTMS and CloseTS/CloseTMS split the timestamps the way
	// the paper's throughput formula consumes them.
	OpenTS, OpenTMS   int64
	CloseTS, CloseTMS int64
	// Throughput is (rb+wb)/duration in bytes/second.
	Throughput float64
}

// MoveResult describes a completed file movement.
type MoveResult struct {
	FileID   int64
	From, To string
	Bytes    int64
	// Duration is the full transfer time in seconds.
	Duration float64
	// Start is the virtual time the move began.
	Start float64
}

// Config tunes cluster-wide behaviour.
type Config struct {
	// Seed drives all stochastic processes.
	Seed int64
}

// moveBlocking is the fraction of a move's duration that stalls the
// workload clock. Geomancy transfers data "in the background" (§V-A)
// rate-limited to avoid bottlenecking the network, but the overhead is
// still partly visible; 0.25 models that residual interference.
const moveBlocking = 0.25

// Cluster is the simulated storage system: a set of devices, the files
// placed on them, and a virtual clock. Cluster methods are safe for
// concurrent use; the virtual clock serializes accesses the way a single
// compute node's I/O path does.
type Cluster struct {
	mu      sync.Mutex
	now     float64
	rng     *rng.RNG
	devices map[string]*Device
	order   []string // device names in profile order
	files   map[int64]*FileState

	totalAccesses int64
}

// NewCluster builds a cluster from profiles.
func NewCluster(profiles []DeviceProfile, cfg Config) (*Cluster, error) {
	c := &Cluster{
		rng:     rng.New(cfg.Seed),
		devices: make(map[string]*Device),
		files:   make(map[int64]*FileState),
	}
	for i, p := range profiles {
		if p.Name == "" {
			return nil, fmt.Errorf("storagesim: device %d has no name", i)
		}
		if _, dup := c.devices[p.Name]; dup {
			return nil, fmt.Errorf("storagesim: duplicate device %q", p.Name)
		}
		if p.ReadBW <= 0 || p.WriteBW <= 0 {
			return nil, fmt.Errorf("storagesim: device %q has non-positive bandwidth", p.Name)
		}
		c.devices[p.Name] = newDevice(p, cfg.Seed+int64(i)*7919)
		c.order = append(c.order, p.Name)
	}
	if len(c.devices) == 0 {
		return nil, fmt.Errorf("storagesim: cluster needs at least one device")
	}
	return c, nil
}

// NewBluesky returns the paper's six-mount system.
func NewBluesky(seed int64) *Cluster {
	c, err := NewCluster(BlueskyProfiles(), Config{Seed: seed})
	if err != nil {
		panic(err) // static profiles cannot fail validation
	}
	return c
}

// Now returns the virtual clock in seconds.
func (c *Cluster) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// DeviceNames returns the device names in profile order.
func (c *Cluster) DeviceNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Device returns the named device, or nil.
func (c *Cluster) Device(name string) *Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.devices[name]
}

// CanPlace reports whether the named device can receive a file of size
// bytes right now; a non-nil error names the rule that failed. It is the
// validator the DRL engine's Action Checker stage filters candidate
// destinations through (§V-H), and the same rules Move and PlaceFile
// enforce when the placement is actually made. The sharded coordinator
// passes a file's size plus the bytes its cycle's earlier escalations
// claimed on the device.
func (c *Cluster) CanPlace(device string, size int64) error {
	return c.Device(device).canReceive(device, size, 0)
}

// canReceive applies the four placement rules to d, the device called
// name (nil when there is no such device): it must exist, be available,
// be writable, and have room for size bytes once claimed bytes are set
// aside (negative when a re-place frees the file's old copy there).
func (d *Device) canReceive(name string, size, claimed int64) error {
	switch {
	case d == nil:
		return fmt.Errorf("storagesim: unknown device %q", name)
	case !d.Available:
		return fmt.Errorf("storagesim: device %q unavailable", name)
	case d.ReadOnly:
		return fmt.Errorf("storagesim: device %q is read-only", name)
	case d.Free()-claimed < size:
		return fmt.Errorf("storagesim: device %q full (%d free, need %d)", name, d.Free()-claimed, size)
	}
	return nil
}

// SetAvailable flips a device's availability (mount loss / recovery).
//
//geomancy:allow testonly simulator control (mount loss): core.TestCheckerIntegration, workload.TestApplyLayoutSkipsInvalidDestination and TestRunErrorsOnUnavailableDevice
func (c *Cluster) SetAvailable(name string, avail bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.devices[name]
	if !ok {
		return fmt.Errorf("storagesim: unknown device %q", name)
	}
	d.Available = avail
	return nil
}

// SetReadOnly flips a device's write permission.
//
//geomancy:allow testonly simulator control (write permission), SetAvailable's pair: storagesim's TestAccessRejectsWriteToReadOnly and restore tests, core.TestShardedEscalationClaims
func (c *Cluster) SetReadOnly(name string, ro bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.devices[name]
	if !ok {
		return fmt.Errorf("storagesim: unknown device %q", name)
	}
	d.ReadOnly = ro
	return nil
}

// PlaceFile creates (or re-homes without transfer cost) a file on device.
// It fails if the device is unknown, unavailable, read-only, or full — and
// a failed call leaves the cluster untouched: every check runs before any
// accounting mutates, so re-placing a file onto a full device keeps the
// file on its old device with that device's used bytes intact.
func (c *Cluster) PlaceFile(id int64, path string, size int64, device string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("storagesim: negative file size %d", size)
	}
	// Every check runs before any mutation. A re-place frees the old
	// copy's bytes, so when the destination already holds the file its
	// current size counts as available (a negative claim).
	d := c.devices[device]
	var freed int64
	f, exists := c.files[id]
	if exists && f.Device == device {
		freed = f.Size
	}
	if err := d.canReceive(device, size, -freed); err != nil {
		return err
	}
	if exists {
		if old := c.devices[f.Device]; old != nil {
			old.used -= f.Size
		}
	}
	c.files[id] = &FileState{ID: id, Path: path, Size: size, Device: device}
	d.used += size
	return nil
}

// File returns the state of a file, or an error if unknown.
func (c *Cluster) File(id int64) (FileState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[id]
	if !ok {
		return FileState{}, fmt.Errorf("storagesim: unknown file %d", id)
	}
	return *f, nil
}

// Files returns a snapshot of all file states sorted by ID.
//
//geomancy:allow testonly inspection: core, scenario and workload tests check placements and the used == Σ resident invariant through it
func (c *Cluster) Files() []FileState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FileState, 0, len(c.files))
	for _, f := range c.files {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Layout returns the current file→device assignment.
func (c *Cluster) Layout() map[int64]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int64]string, len(c.files))
	for id, f := range c.files {
		out[id] = f.Device
	}
	return out
}

// noise draws the bounded multiplicative noise factor for a device.
func (c *Cluster) noise(d *Device) float64 {
	n := 1 + d.Profile.Noise*c.rng.NormFloat64()
	if n < 0.15 {
		n = 0.15
	}
	if n > 3 {
		n = 3
	}
	return n
}

// Access simulates reading/writing the file at its current location,
// advancing the virtual clock by the access duration and returning the
// telemetry a monitoring agent would capture.
func (c *Cluster) Access(fileID, readBytes, writeBytes int64) (AccessResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if readBytes < 0 || writeBytes < 0 {
		return AccessResult{}, fmt.Errorf("storagesim: negative access size")
	}
	f, ok := c.files[fileID]
	if !ok {
		return AccessResult{}, fmt.Errorf("storagesim: unknown file %d", fileID)
	}
	d := c.devices[f.Device]
	if !d.Available {
		return AccessResult{}, fmt.Errorf("storagesim: device %q unavailable", f.Device)
	}
	if writeBytes > 0 && d.ReadOnly {
		return AccessResult{}, fmt.Errorf("storagesim: write of %d bytes to read-only device %q", writeBytes, f.Device)
	}

	start := c.now
	dur := d.Profile.LatencyFloor
	if readBytes > 0 {
		dur += float64(readBytes) / d.effectiveBW(start, d.Profile.ReadBW)
	}
	if writeBytes > 0 {
		dur += float64(writeBytes) / d.effectiveBW(start, d.Profile.WriteBW)
	}
	dur *= c.noise(d)
	if dur <= 0 {
		dur = 1e-6
	}
	end := start + dur
	c.now = end
	d.addLoad(end, dur)
	d.accessCount++
	d.bytesServed += readBytes + writeBytes
	d.busySeconds += dur
	c.totalAccesses++

	res := AccessResult{
		FileID:       fileID,
		Path:         f.Path,
		Device:       f.Device,
		BytesRead:    readBytes,
		BytesWritten: writeBytes,
		Start:        start,
		End:          end,
		Throughput:   float64(readBytes+writeBytes) / dur,
	}
	d.noteThroughput(res.Throughput)
	res.OpenTS, res.OpenTMS = splitTS(start)
	res.CloseTS, res.CloseTMS = splitTS(end)
	return res, nil
}

// Move transfers a file to device dst, charging the transfer cost: the
// full duration loads both devices, and moveBlocking of it stalls the
// workload clock. Moving a file onto its current device is a no-op.
func (c *Cluster) Move(fileID int64, dst string) (MoveResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[fileID]
	if !ok {
		return MoveResult{}, fmt.Errorf("storagesim: unknown file %d", fileID)
	}
	if f.Device == dst {
		return MoveResult{FileID: fileID, From: dst, To: dst, Start: c.now}, nil
	}
	to := c.devices[dst]
	if err := to.canReceive(dst, f.Size, 0); err != nil {
		return MoveResult{}, err
	}
	from := c.devices[f.Device]

	start := c.now
	readBW := from.effectiveBW(start, from.Profile.ReadBW)
	writeBW := to.effectiveBW(start, to.Profile.WriteBW)
	bw := math.Min(readBW, writeBW)
	dur := from.Profile.LatencyFloor + to.Profile.LatencyFloor + float64(f.Size)/bw
	dur *= c.noise(to)

	from.used -= f.Size
	to.used += f.Size
	prev := f.Device
	f.Device = dst

	from.addLoad(start, dur)
	to.addLoad(start, dur)
	c.now += dur * moveBlocking

	return MoveResult{FileID: fileID, From: prev, To: dst, Bytes: f.Size, Duration: dur, Start: start}, nil
}

// Stats summarizes one device's accounting.
type Stats struct {
	Name        string
	Accesses    int64
	BytesServed int64
	BusySeconds float64
	Used        int64
	Capacity    int64
}

// DeviceStats returns per-device accounting in profile order.
func (c *Cluster) DeviceStats() []Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Stats, 0, len(c.order))
	for _, name := range c.order {
		d := c.devices[name]
		out = append(out, Stats{
			Name:        name,
			Accesses:    d.accessCount,
			BytesServed: d.bytesServed,
			BusySeconds: d.busySeconds,
			Used:        d.used,
			Capacity:    d.Profile.Capacity,
		})
	}
	return out
}

// DeviceSummary is the cheap per-device digest the candidate-pruning plane
// ranks shortlists by: no effectiveBW evaluation, no clock advancement —
// just state the cluster already maintains on every access.
type DeviceSummary struct {
	Name string
	// RecentThroughput is an exponentially weighted moving average of the
	// device's observed per-access throughput in bytes/second. A device
	// with no recorded accesses yet reports its nominal read bandwidth, so
	// an idle fast device still ranks into shortlists.
	RecentThroughput float64
	// Available and ReadOnly mirror the device flags so shortlist
	// construction can skip devices no move could target anyway.
	Available bool
	ReadOnly  bool
	// Nominal reports that RecentThroughput is the nominal-bandwidth
	// fallback — the device has never served an access — so shortlist
	// construction can make sure never-probed devices stay candidates
	// instead of being starved by devices with observed throughput.
	Nominal bool
}

// DeviceSummaries returns one summary per device in profile order.
func (c *Cluster) DeviceSummaries() []DeviceSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DeviceSummary, 0, len(c.order))
	for _, name := range c.order {
		d := c.devices[name]
		tp := d.recentTP
		if !d.recentTPValid {
			tp = d.Profile.ReadBW
		}
		out = append(out, DeviceSummary{
			Name:             name,
			RecentThroughput: tp,
			Available:        d.Available,
			ReadOnly:         d.ReadOnly,
			Nominal:          !d.recentTPValid,
		})
	}
	return out
}

// splitTS splits seconds into whole seconds and a millisecond part,
// matching the paper's (ts, tms) telemetry convention.
func splitTS(t float64) (sec, ms int64) {
	sec = int64(t)
	ms = int64((t - float64(sec)) * 1000)
	if ms > 999 {
		ms = 999
	}
	if ms < 0 {
		ms = 0
	}
	return sec, ms
}
