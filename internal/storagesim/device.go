// Package storagesim simulates the storage substrate of the paper's live
// experiments: PNNL Bluesky's single compute node with six mounted storage
// devices (§III) — an NFS home directory shared with other users (people),
// two RAID-1 scratch mounts (var, tmp), a RAID-5 mount with a large
// read/write speed imbalance (file0), a Lustre file system (pic), and an
// externally mounted USB disk (USBtmp).
//
// The simulator is a virtual-clock discrete-event model. Each device has a
// sustained read/write bandwidth, a per-access latency floor, bounded
// multiplicative noise, and an external-contention process (diurnal wave
// plus Poisson bursts) standing in for the other users of the shared
// system. Every stochastic choice derives from an explicit seed, so
// experiments replay bit-for-bit.
//
// Accounting semantics: a failed mutation leaves the cluster untouched.
// PlaceFile, Move, and Access validate every precondition (device known,
// available, writable when bytes land on it, capacity) before touching any
// used-bytes or served-bytes counter, so each device's used bytes always
// equal the summed sizes of the files resident on it and read-only devices
// never absorb writes.
package storagesim

import (
	"fmt"
	"math"

	"geomancy/internal/rng"
)

// ExternalLoad models contention from other users of a shared device as a
// fraction of device bandwidth consumed at a given time.
type ExternalLoad struct {
	// Base is the always-present load fraction in [0,1).
	Base float64
	// WaveAmp and WavePeriod describe the diurnal demand wave.
	WaveAmp    float64
	WavePeriod float64
	// Phase offsets the wave so devices do not peak together.
	Phase float64
	// BurstRate is the expected bursts per simulated hour; BurstLoad the
	// extra load during a burst, and BurstMean the mean burst length in
	// seconds. The NFS mount's multi-hour stalls are long, severe bursts.
	BurstRate float64
	BurstLoad float64
	BurstMean float64
	// EraMean and EraSpread describe slow regime changes in the device's
	// background demand: roughly every EraMean seconds an additive
	// contention level is re-drawn uniformly from [0, EraSpread] and
	// persists for the era. These are the "shifting workloads" of §I —
	// the non-stationarity that makes any one-shot layout decay and that
	// a periodically re-trained model can chase. Zero disables eras.
	EraMean   float64
	EraSpread float64
}

// DeviceProfile is the static description of a storage device.
type DeviceProfile struct {
	// Name is the mount name (file0, pic, people, tmp, var, USBtmp).
	Name string
	// Class names the hardware class behind the mount ("raid5", "nfs",
	// "usb", ...): a label for reports and benchmarks, which placement
	// does not read; empty means unclassified.
	Class string
	// ReadBW and WriteBW are sustained bandwidths in bytes/second.
	ReadBW, WriteBW float64
	// LatencyFloor is the fixed per-access overhead in seconds.
	LatencyFloor float64
	// Noise is the relative sigma of per-access multiplicative noise.
	Noise float64
	// Capacity is the device size in bytes.
	Capacity int64
	// External is the contention process of the device.
	External ExternalLoad
}

// Device is the live state of a simulated device.
type Device struct {
	Profile DeviceProfile //geomancy:ephemeral topology config; RestoreState requires a cluster rebuilt from the same profiles

	// Available mirrors mount availability; the Action Checker consults
	// it before approving moves.
	Available bool
	// ReadOnly marks devices that cannot accept new data.
	ReadOnly bool

	used int64 // bytes currently stored

	// load is a decaying account of recent internal traffic (our own
	// workloads), producing self-contention when two workloads or a move
	// hit the same mount.
	load        float64
	loadUpdated float64
	// externalScale multiplies the external load; scenario hooks use it.
	externalScale float64

	// burst state: the current/next burst window, generated lazily.
	burstStart, burstEnd float64
	burstRNG             *rng.RNG

	// era state: the current additive contention regime and when it ends.
	eraLoad float64
	eraEnd  float64
	eraRNG  *rng.RNG

	// accounting
	accessCount int64
	bytesServed int64
	busySeconds float64

	// recentTP is an exponentially weighted moving average of observed
	// per-access throughput, the cheap signal DeviceSummaries exposes for
	// shortlist ranking. recentTPValid distinguishes "never accessed" from
	// a genuine zero.
	recentTP      float64
	recentTPValid bool
}

// recentTPAlpha is the EWMA smoothing factor for recentTP: each access
// contributes 20% of its throughput, so the average spans roughly the last
// five accesses — fresh enough to track bursts, smooth enough that one
// noisy access does not reorder a shortlist.
const recentTPAlpha = 0.2

// noteThroughput folds one observed access throughput into the EWMA.
func (d *Device) noteThroughput(tp float64) {
	if d.recentTPValid {
		d.recentTP += recentTPAlpha * (tp - d.recentTP)
	} else {
		d.recentTP = tp
		d.recentTPValid = true
	}
}

// loadHalfLife is the decay half-life, in simulated seconds, of the
// self-contention account.
const loadHalfLife = 20.0

func newDevice(p DeviceProfile, seed int64) *Device {
	d := &Device{
		Profile:       p,
		Available:     true,
		externalScale: 1,
		burstRNG:      rng.New(seed),
		eraRNG:        rng.New(seed ^ 0x5eed),
	}
	d.scheduleBurst(0)
	d.nextEra(0)
	return d
}

// nextEra draws the contention regime starting at time t.
func (d *Device) nextEra(t float64) {
	e := d.Profile.External
	if e.EraMean <= 0 || e.EraSpread <= 0 {
		d.eraLoad = 0
		d.eraEnd = math.Inf(1)
		return
	}
	d.eraLoad = d.eraRNG.Float64() * e.EraSpread
	d.eraEnd = t + e.EraMean*(0.5+d.eraRNG.ExpFloat64())
}

// scheduleBurst draws the next burst window at or after time t.
func (d *Device) scheduleBurst(t float64) {
	e := d.Profile.External
	if e.BurstRate <= 0 {
		d.burstStart = math.Inf(1)
		d.burstEnd = math.Inf(1)
		return
	}
	gap := d.burstRNG.ExpFloat64() * 3600 / e.BurstRate
	d.burstStart = t + gap
	d.burstEnd = d.burstStart + d.burstRNG.ExpFloat64()*e.BurstMean
}

// externalLoad returns the contention fraction at time t, advancing the
// burst schedule as the clock passes windows.
func (d *Device) externalLoad(t float64) float64 {
	e := d.Profile.External
	load := e.Base
	if e.WaveAmp > 0 && e.WavePeriod > 0 {
		load += e.WaveAmp * (0.5 + 0.5*math.Sin(2*math.Pi*(t+e.Phase)/e.WavePeriod))
	}
	for t > d.burstEnd {
		d.scheduleBurst(d.burstEnd)
	}
	if t >= d.burstStart && t <= d.burstEnd {
		load += e.BurstLoad
	}
	for t > d.eraEnd {
		d.nextEra(d.eraEnd)
	}
	load += d.eraLoad
	load *= d.externalScale
	if load < 0 {
		return 0
	}
	if load > 0.97 {
		return 0.97
	}
	return load
}

// decayLoad brings the self-contention account forward to time t.
func (d *Device) decayLoad(t float64) {
	if t <= d.loadUpdated {
		return
	}
	dt := t - d.loadUpdated
	d.load *= math.Exp2(-dt / loadHalfLife)
	d.loadUpdated = t
}

// addLoad records internal traffic that occupied the device for busy
// seconds around time t.
func (d *Device) addLoad(t, busy float64) {
	d.decayLoad(t)
	d.load += busy
}

// steadyStateLoad is the load account's value for a device that is busy
// 100% of the time: the integral of busy-seconds under exponential decay,
// loadHalfLife/ln 2.
const steadyStateLoad = loadHalfLife / math.Ln2

// effectiveBW returns the bandwidth available to one stream at time t,
// before noise. Internal traffic costs up to ~45% of bandwidth at full
// utilization (busyFrac 1.5 caps the penalty when moves pile on top of a
// saturated device) — enough that cramming everything onto the fastest
// mount costs real bandwidth (the paper's "its performance would suffer
// greatly"), but not so much that the per-file greedy placement, which is
// blind to joint contention, destabilizes.
func (d *Device) effectiveBW(t, base float64) float64 {
	d.decayLoad(t)
	ext := d.externalLoad(t)
	busyFrac := d.load / steadyStateLoad
	if busyFrac > 1.5 {
		busyFrac = 1.5
	}
	return base * (1 - ext) / (1 + 0.55*busyFrac)
}

// Used returns the bytes currently stored on the device.
func (d *Device) Used() int64 { return d.used }

// Free returns the remaining capacity in bytes.
func (d *Device) Free() int64 { return d.Profile.Capacity - d.used }

func (d *Device) String() string {
	return fmt.Sprintf("%s(read=%.2gB/s write=%.2gB/s used=%d)",
		d.Profile.Name, d.Profile.ReadBW, d.Profile.WriteBW, d.used)
}

// BlueskyProfiles returns the six-device configuration calibrated to the
// paper: Table IV average throughputs (file0 7.61 GB/s … USBtmp 0.63 GB/s),
// §III's qualitative notes (RAID-5 fastest with read≫write, USB slowest,
// NFS home with hour-scale interference from other users), and the heavy
// per-device variance the paper reports.
func BlueskyProfiles() []DeviceProfile {
	const GB = 1e9
	return []DeviceProfile{
		{
			Name: "file0", Class: "raid5", ReadBW: 14 * GB, WriteBW: 4 * GB,
			LatencyFloor: 0.004, Noise: 0.32, Capacity: 400e9,
			External: ExternalLoad{Base: 0.1, WaveAmp: 0.25, WavePeriod: 3000, BurstRate: 0.4, BurstLoad: 0.35, BurstMean: 1500, EraMean: 4200, EraSpread: 0.45},
		},
		{
			Name: "pic", Class: "lustre", ReadBW: 6 * GB, WriteBW: 4.5 * GB,
			LatencyFloor: 0.008, Noise: 0.35, Capacity: 800e9,
			External: ExternalLoad{Base: 0.2, WaveAmp: 0.25, WavePeriod: 3200, Phase: 1600, BurstRate: 0.4, BurstLoad: 0.3, BurstMean: 1200, EraMean: 4800, EraSpread: 0.4},
		},
		{
			Name: "people", Class: "nfs", ReadBW: 5.5 * GB, WriteBW: 4 * GB,
			LatencyFloor: 0.012, Noise: 0.35, Capacity: 300e9,
			External: ExternalLoad{Base: 0.35, WaveAmp: 0.2, WavePeriod: 4000, Phase: 1500, BurstRate: 0.4, BurstLoad: 0.4, BurstMean: 3600, EraMean: 5400, EraSpread: 0.4},
		},
		{
			Name: "tmp", Class: "raid1", ReadBW: 4 * GB, WriteBW: 3.2 * GB,
			LatencyFloor: 0.005, Noise: 0.32, Capacity: 200e9,
			External: ExternalLoad{Base: 0.15, WaveAmp: 0.15, WavePeriod: 1800, Phase: 300, BurstRate: 0.6, BurstLoad: 0.25, BurstMean: 420, EraMean: 4500, EraSpread: 0.35},
		},
		{
			Name: "var", Class: "raid1", ReadBW: 3 * GB, WriteBW: 2.4 * GB,
			LatencyFloor: 0.005, Noise: 0.32, Capacity: 150e9,
			External: ExternalLoad{Base: 0.15, WaveAmp: 0.18, WavePeriod: 2200, Phase: 900, BurstRate: 0.6, BurstLoad: 0.28, BurstMean: 480, EraMean: 5000, EraSpread: 0.35},
		},
		{
			Name: "USBtmp", Class: "usb", ReadBW: 0.8 * GB, WriteBW: 0.55 * GB,
			LatencyFloor: 0.02, Noise: 0.2, Capacity: 1000e9,
			External: ExternalLoad{Base: 0.02, WaveAmp: 0.05, WavePeriod: 3600},
		},
	}
}
