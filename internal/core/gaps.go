package core

import (
	"math"
	"sort"
	"sync"

	"geomancy/internal/storagesim"
)

// GapPredictor implements the paper's proposed second model (§X): it
// predicts, per file, the gaps between accesses — "periods of time, where
// the individual file is not accessed by any workloads, that is long
// enough for Geomancy to move the file to the new location". The paper
// leaves this as future work and sketches it as "a second neural network
// or algorithm" (§V-F); this implementation is the algorithmic variant, an
// exponentially weighted estimate of each file's inter-access gap mean and
// deviation.
//
// GapPredictor is safe for concurrent use.
type GapPredictor struct {
	mu    sync.Mutex
	stats map[int64]*gapStats
}

type gapStats struct {
	lastAccess float64
	mean       float64 // EWMA of gap lengths
	dev        float64 // EWMA of absolute deviation
	n          int64
	// Release gaps: scientific workloads read a file 10–20 times in a
	// burst and then leave it idle for a long stretch. The idle windows
	// that matter for movement are those release gaps, not the intra-
	// burst cadence, so gaps well above the running mean are tracked
	// separately.
	releaseMean float64
	releaseDev  float64
	releases    int64
}

// releaseFactor is how far above the running mean a gap must be to count
// as a release (end-of-burst idle period).
const releaseFactor = 5

// gapWeight is the EWMA weight of a new gap observation.
const gapWeight = 0.25

// NewGapPredictor returns an empty predictor.
func NewGapPredictor() *GapPredictor {
	return &GapPredictor{stats: make(map[int64]*gapStats)}
}

// Observe records an access of the file at time t (virtual seconds).
func (g *GapPredictor) Observe(fileID int64, t float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.stats[fileID]
	if !ok {
		g.stats[fileID] = &gapStats{lastAccess: t}
		return
	}
	gap := t - s.lastAccess
	if gap < 0 {
		gap = 0
	}
	s.lastAccess = t
	s.n++
	if s.n == 1 {
		s.mean = gap
		s.dev = gap / 2
		return
	}
	const a = gapWeight
	if s.mean > 0 && gap > releaseFactor*s.mean {
		// End-of-burst idle period: feed the release-gap model and keep
		// the cadence model untouched.
		s.releases++
		if s.releases == 1 {
			s.releaseMean = gap
			s.releaseDev = gap / 2
		} else {
			diff := math.Abs(gap - s.releaseMean)
			s.releaseMean = (1-a)*s.releaseMean + a*gap
			s.releaseDev = (1-a)*s.releaseDev + a*diff
		}
		return
	}
	diff := math.Abs(gap - s.mean)
	s.mean = (1-a)*s.mean + a*gap
	s.dev = (1-a)*s.dev + a*diff
}

// PredictGap returns the estimated mean and deviation of the file's
// usable idle window: the release-gap model once end-of-burst idle
// periods have been observed, otherwise the all-gap cadence. ok is false
// until at least two accesses were observed.
func (g *GapPredictor) PredictGap(fileID int64) (mean, dev float64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, found := g.stats[fileID]
	if !found || s.n < 1 {
		return 0, 0, false
	}
	if s.releases > 0 {
		return s.releaseMean, s.releaseDev, true
	}
	return s.mean, s.dev, true
}

// MoveEstimator predicts the transfer duration (seconds) of moving a file
// to a destination device.
type MoveEstimator func(fileID int64, dst string) float64

// Deferral explains why a proposed move was postponed.
type Deferral struct {
	FileID int64
	Dst    string
	// Gap is the predicted inter-access gap; Need the estimated move time.
	Gap, Need float64
	// Hot marks files "that are always accessed and never released" —
	// gap statistics say they are never idle long enough.
	Hot bool
}

// headroom scales the required window: move only if
// predictedGap - dev ≥ headroom × estimated transfer.
const headroom = 1.5

// Filter gates a proposed layout on predicted access gaps, splitting it
// into the moves safe to execute now and the deferrals: a file is only
// moved when its predicted idle window comfortably covers the transfer, so
// parallel accesses never race an in-flight move (§X). Files without gap
// history are allowed through (Geomancy must be able to act on new files),
// and entries whose destination is the file's current device in cluster
// (no move) pass through untouched.
func (g *GapPredictor) Filter(layout map[int64]string, cluster *storagesim.Cluster, estimate MoveEstimator) (map[int64]string, []Deferral) {
	approved := make(map[int64]string, len(layout))
	var deferred []Deferral
	for id, dst := range layout {
		if f, _ := cluster.File(id); f.Device == dst {
			approved[id] = dst // not a movement
			continue
		}
		mean, dev, ok := g.PredictGap(id)
		if !ok {
			approved[id] = dst // no history: allow, and learn from it
			continue
		}
		need := estimate(id, dst) * headroom
		window := mean - dev
		if window >= need {
			approved[id] = dst
			continue
		}
		deferred = append(deferred, Deferral{
			FileID: id,
			Dst:    dst,
			Gap:    mean,
			Need:   need,
			// Hot files are "always accessed and never released": their
			// idle windows are an order of magnitude short of any move.
			Hot: window < need/10,
		})
	}
	sort.Slice(deferred, func(i, j int) bool { return deferred[i].FileID < deferred[j].FileID })
	return approved, deferred
}

// ClusterMoveEstimator builds a MoveEstimator from the cluster's file table
// and static device profiles: transfer time ≈ size / min(source read BW,
// destination write BW).
func ClusterMoveEstimator(cluster *storagesim.Cluster) MoveEstimator {
	return func(fileID int64, dst string) float64 {
		f, err := cluster.File(fileID)
		src, to := cluster.Device(f.Device), cluster.Device(dst)
		if err != nil || src == nil || to == nil {
			return math.Inf(1) // unknown path: never "safe"
		}
		return float64(f.Size) / math.Min(src.Profile.ReadBW, to.Profile.WriteBW)
	}
}
