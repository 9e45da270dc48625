package storagesim

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInvalidState reports a cluster snapshot whose accounting disagrees
// with itself: a repeated device or file, a negative size, used-bytes or
// access count, a non-finite last-access time, or a device whose used
// bytes are not the sizes of the files the snapshot places on it.
var ErrInvalidState = errors.New("storagesim: inconsistent cluster state")

// DeviceState is the serializable dynamic state of one device: everything
// newDevice and subsequent simulation mutate, excluding the static
// Profile (which the restoring side reconstructs from configuration).
type DeviceState struct {
	Name      string
	Available bool
	ReadOnly  bool
	Used      int64

	Load          float64
	LoadUpdated   float64
	ExternalScale float64

	BurstStart, BurstEnd float64
	BurstRNG             uint64

	EraLoad float64
	EraEnd  float64
	EraRNG  uint64

	AccessCount int64
	BytesServed int64
	BusySeconds float64

	// RecentTP/RecentTPValid carry the per-device throughput EWMA that
	// DeviceSummaries reports, so shortlists after a restore match the
	// original run bit-for-bit.
	RecentTP      float64
	RecentTPValid bool
}

// ClusterState is the serializable snapshot of a cluster: the virtual
// clock, the shared noise stream, every device's dynamic state, and the
// file table: every file's placement and heat. Device profiles and Config
// are deliberately excluded — a restored run is expected to rebuild the
// cluster from the same configuration before applying the state.
type ClusterState struct {
	Now           float64
	RNG           uint64
	TotalAccesses int64
	Devices       []DeviceState
	Files         []FileState
}

// State captures the cluster mid-run. Restoring it onto a freshly built
// cluster with the same profiles and config resumes the simulation
// bit-for-bit.
func (c *Cluster) State() ClusterState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClusterState{
		Now:           c.now,
		RNG:           c.rng.State(),
		TotalAccesses: c.totalAccesses,
	}
	for _, name := range c.order {
		d := c.devices[name]
		st.Devices = append(st.Devices, DeviceState{
			Name:          name,
			Available:     d.Available,
			ReadOnly:      d.ReadOnly,
			Used:          d.used,
			Load:          d.load,
			LoadUpdated:   d.loadUpdated,
			ExternalScale: d.externalScale,
			BurstStart:    d.burstStart,
			BurstEnd:      d.burstEnd,
			BurstRNG:      d.burstRNG.State(),
			EraLoad:       d.eraLoad,
			EraEnd:        d.eraEnd,
			EraRNG:        d.eraRNG.State(),
			AccessCount:   d.accessCount,
			BytesServed:   d.bytesServed,
			BusySeconds:   d.busySeconds,
			RecentTP:      d.recentTP,
			RecentTPValid: d.recentTPValid,
		})
	}
	for _, id := range sortedFileIDs(c.files) {
		st.Files = append(st.Files, *c.files[id])
	}
	return st
}

// RestoreState overwrites the cluster's dynamic state with a previously
// captured snapshot. The cluster must have been built from the same
// profiles: every device named in the snapshot must exist, and devices
// missing from the snapshot are an error (a layout restored onto a
// different topology would silently misplace files otherwise). The
// snapshot's accounting must hold (ErrInvalidState). Every check runs
// before anything is assigned, so a refused snapshot changes nothing.
func (c *Cluster) RestoreState(st ClusterState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(st.Devices) != len(c.devices) {
		return fmt.Errorf("storagesim: snapshot has %d devices, cluster has %d", len(st.Devices), len(c.devices))
	}
	resident := make(map[string]int64, len(st.Devices))
	for _, ds := range st.Devices {
		if _, ok := c.devices[ds.Name]; !ok {
			return fmt.Errorf("storagesim: snapshot device %q not in cluster", ds.Name)
		}
		if _, dup := resident[ds.Name]; dup {
			return fmt.Errorf("%w: device %q listed twice", ErrInvalidState, ds.Name)
		}
		if ds.Used < 0 {
			return fmt.Errorf("%w: device %q uses %d bytes", ErrInvalidState, ds.Name, ds.Used)
		}
		resident[ds.Name] = 0
	}
	seen := make(map[int64]bool, len(st.Files))
	for _, fs := range st.Files {
		if _, ok := c.devices[fs.Device]; !ok {
			return fmt.Errorf("storagesim: snapshot file %d placed on unknown device %q", fs.ID, fs.Device)
		}
		if seen[fs.ID] {
			return fmt.Errorf("%w: file %d listed twice", ErrInvalidState, fs.ID)
		}
		if fs.Size < 0 {
			return fmt.Errorf("%w: file %d has size %d", ErrInvalidState, fs.ID, fs.Size)
		}
		if fs.Accesses < 0 || math.IsNaN(fs.LastAccess) || math.IsInf(fs.LastAccess, 0) {
			return fmt.Errorf("%w: file %d has %d accesses, the last at %v", ErrInvalidState, fs.ID, fs.Accesses, fs.LastAccess)
		}
		seen[fs.ID] = true
		resident[fs.Device] += fs.Size
	}
	for _, ds := range st.Devices {
		if ds.Used != resident[ds.Name] {
			return fmt.Errorf("%w: device %q uses %d bytes, its files sum to %d", ErrInvalidState, ds.Name, ds.Used, resident[ds.Name])
		}
	}
	c.now = st.Now
	c.rng.SetState(st.RNG)
	c.totalAccesses = st.TotalAccesses
	for _, ds := range st.Devices {
		d := c.devices[ds.Name]
		d.Available = ds.Available
		d.ReadOnly = ds.ReadOnly
		d.used = ds.Used
		d.load = ds.Load
		d.loadUpdated = ds.LoadUpdated
		d.externalScale = ds.ExternalScale
		d.burstStart = ds.BurstStart
		d.burstEnd = ds.BurstEnd
		d.burstRNG.SetState(ds.BurstRNG)
		d.eraLoad = ds.EraLoad
		d.eraEnd = ds.EraEnd
		d.eraRNG.SetState(ds.EraRNG)
		d.accessCount = ds.AccessCount
		d.bytesServed = ds.BytesServed
		d.busySeconds = ds.BusySeconds
		d.recentTP = ds.RecentTP
		d.recentTPValid = ds.RecentTPValid
	}
	c.files = make(map[int64]*FileState, len(st.Files))
	for i := range st.Files {
		f := st.Files[i]
		c.files[f.ID] = &f
	}
	return nil
}

func sortedFileIDs(files map[int64]*FileState) []int64 {
	ids := make([]int64, 0, len(files))
	for id := range files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
