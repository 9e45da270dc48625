package storagesim

import "fmt"

// Shard is a disjoint device subset of a cluster with a two-phase
// reservation ledger for cross-shard migrations. Shards share the parent
// cluster's devices and virtual clock — a shard is a *view* plus
// shard-local state, not a copy — so accesses and moves still go through
// the parent; the shard adds the bookkeeping the sharded placement plane
// needs: which devices it owns and which remote placements are
// tentatively holding bytes. (Decision, escalation and migration tallies
// are the coordinator's geomancy_shard_* telemetry counters.)
type Shard struct {
	parent  *Cluster //geomancy:ephemeral structural wiring, re-supplied by Cluster.ShardBy on restore
	index   int
	names   []string
	nameSet map[string]bool //geomancy:ephemeral derived from names by newShard

	// reserved holds tentative byte claims per device (two-phase
	// cross-shard placement): Reserve admits a claim only if the device's
	// free space minus existing claims covers it, and ReleaseReservations
	// drops all claims at the end of a decision cycle. Reservations never
	// touch Device.used — the actual accounting happens in Cluster.Move,
	// which re-validates — so a failed or abandoned remote placement can
	// never corrupt used-bytes.
	reserved map[string]int64 //geomancy:ephemeral intra-decision-cycle ledger, always empty at checkpoint boundaries
}

func newShard(parent *Cluster, index int, names []string) *Shard {
	s := &Shard{
		parent:   parent,
		index:    index,
		names:    names,
		nameSet:  make(map[string]bool, len(names)),
		reserved: make(map[string]int64),
	}
	for _, n := range names {
		s.nameSet[n] = true
	}
	return s
}

// ShardBy partitions the cluster's devices into n groups using assign,
// which maps a device name to its shard index in [0, n). A nil assign
// falls back to the contiguous profile-order partition. Every shard must
// end up with at least one device — an empty shard would own an engine
// with no candidates — and an out-of-range assignment is an error.
func (c *Cluster) ShardBy(n int, assign func(device string) int) ([]*Shard, error) {
	c.mu.Lock()
	order := make([]string, len(c.order))
	copy(order, c.order)
	c.mu.Unlock()

	if n < 1 {
		return nil, fmt.Errorf("storagesim: shard count %d < 1", n)
	}
	if n > len(order) {
		return nil, fmt.Errorf("storagesim: %d shards over %d devices leaves empty shards", n, len(order))
	}
	groups := make([][]string, n)
	if assign == nil {
		// Contiguous profile-order split: sizes differ by at most one.
		base, extra := len(order)/n, len(order)%n
		at := 0
		for i := 0; i < n; i++ {
			size := base
			if i < extra {
				size++
			}
			groups[i] = order[at : at+size]
			at += size
		}
	} else {
		for _, name := range order {
			i := assign(name)
			if i < 0 || i >= n {
				return nil, fmt.Errorf("storagesim: device %q assigned to shard %d outside [0,%d)", name, i, n)
			}
			groups[i] = append(groups[i], name)
		}
	}
	shards := make([]*Shard, n)
	for i, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("storagesim: shard %d of %d has no devices", i, n)
		}
		shards[i] = newShard(c, i, g)
	}
	return shards, nil
}

// DeviceNames returns the shard's device names in profile order.
func (s *Shard) DeviceNames() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Device returns the named device when the shard owns it, else nil —
// including devices that exist in the parent cluster but belong to a
// different shard.
func (s *Shard) Device(name string) *Device {
	if !s.nameSet[name] {
		return nil
	}
	return s.parent.Device(name)
}

// DeviceSummaries returns the parent's digests filtered to the shard's
// devices, preserving profile order.
func (s *Shard) DeviceSummaries() []DeviceSummary {
	all := s.parent.DeviceSummaries()
	out := make([]DeviceSummary, 0, len(s.names))
	for _, d := range all {
		if s.nameSet[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

// Reserve tentatively claims size bytes on one of the shard's devices —
// phase one of a cross-shard migration. The claim succeeds only when the
// device is present, available, writable, and its free space minus the
// shard's existing claims covers size. A successful Reserve mutates only
// the reservation ledger; the used-bytes accounting happens later, in
// Cluster.Move, which re-validates against real free space. A failed
// Reserve leaves the ledger untouched.
func (s *Shard) Reserve(device string, size int64) error {
	if size < 0 {
		return fmt.Errorf("storagesim: negative reservation %d", size)
	}
	if err := s.Device(device).canReceive(device, size, s.reserved[device]); err != nil {
		return fmt.Errorf("storagesim: shard %d reservation: %w", s.index, err)
	}
	s.reserved[device] += size
	return nil
}

// Reserved returns the bytes currently claimed on a device.
//
//geomancy:allow testonly core.TestShardedReservationsReleased reads the intra-cycle ledger, which State omits
func (s *Shard) Reserved(device string) int64 { return s.reserved[device] }

// ReleaseReservations drops every tentative claim — phase two of the
// cycle, after the coordinator has committed its layout. Reservations
// only ever gate admission within one decision cycle, so the ledger is
// empty at every checkpoint boundary.
func (s *Shard) ReleaseReservations() {
	for k := range s.reserved {
		delete(s.reserved, k)
	}
}

// ShardState is the serializable snapshot of a shard: its identity (index
// + owned devices), validated on restore. The devices themselves serialize
// with the parent ClusterState; the reservation ledger is intra-cycle and
// always empty at snapshot time.
type ShardState struct {
	Index   int
	Devices []string
}

// State captures the shard's identity.
func (s *Shard) State() ShardState {
	return ShardState{Index: s.index, Devices: append([]string(nil), s.names...)}
}

// RestoreState verifies that a snapshot describes this shard — same index,
// same device set. A partition mismatch means the snapshot was taken under
// a different sharding configuration and must not restore silently.
func (s *Shard) RestoreState(st ShardState) error {
	if st.Index != s.index {
		return fmt.Errorf("storagesim: shard state index %d does not match shard %d", st.Index, s.index)
	}
	if len(st.Devices) != len(s.names) {
		return fmt.Errorf("storagesim: shard %d state has %d devices, shard owns %d", s.index, len(st.Devices), len(s.names))
	}
	for i, name := range st.Devices {
		if s.names[i] != name {
			return fmt.Errorf("storagesim: shard %d device %d is %q in state, %q in shard", s.index, i, name, s.names[i])
		}
	}
	return nil
}
