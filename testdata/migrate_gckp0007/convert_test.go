// This file is the converter that rewrote online_gaps_parent.ckpt from the
// GCKP0006 format it was in to GCKP0007. It builds against the types of
// c064e96, the last commit that reads GCKP0006, not against this tree, and
// lives under testdata/ so the go command ignores it. To run it again:
//
//	git show c064e96:testdata/online_gaps_parent.ckpt > /tmp/gckp0006.ckpt
//	git clone . /tmp/reader && git -C /tmp/reader checkout c064e96
//	cp testdata/migrate_gckp0007/convert_test.go /tmp/reader/internal/checkpoint/
//	cd /tmp/reader && CONVERT_IN=/tmp/gckp0006.ckpt CONVERT_OUT=/tmp/gckp0007.ckpt \
//		go test -run TestConvert -v ./internal/checkpoint/
//
// Its output is byte-identical to the committed fixture (180 589 bytes).
// What it changes, and nothing else:
//
//   - Loop.Heat leaves the head. Each entry's LastAccess and Accesses go
//     into the cluster file of the same ID, as the FileState fields of the
//     same names; a file without an entry keeps zero heat. The converter
//     refuses a heat entry for a file the cluster does not hold.
//   - AccessCount, which the commit that first wrote the fixture did not
//     record, is written as len(Accesses): that commit embedded every
//     record a memory database held, which is how the GCKP0006 reader
//     counted a zero. The GCKP0007 reader takes the count as written.
//   - The magic becomes GCKP0007 and the CRC is recomputed.
//   - Every other head field is re-encoded by gob under its old name with
//     the value decoded, so the fields the current types no longer have
//     (BootstrapLeft, Loop.Headroom, Gaps.Alpha, Engine.ModelGen and
//     ScoreCache, the replay movements) stay in the file for the reader to
//     drop. The four raw sections (weights, stats, train log, movements)
//     are copied byte for byte.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/features"
	"geomancy/internal/nn"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

type netArch struct {
	Desc   string
	InSize int
	Window int
	Layers []nn.LayerSpec
}

type scoreState struct {
	FileID int64
	Size   int64
	Scores []float64
	Gens   []uint64
}

type headEngine struct {
	RNG           uint64
	Net           netArch
	Devices       []string
	FeatScaler    features.MinMaxState
	TargetScaler  features.ScalarState
	ValMetrics    nn.Metrics
	Trained       bool
	DecisionCount uint64
	ModelGen      uint64
	LastWatermark uint64
	ScoreCache    []scoreState
}

type gapState struct {
	Alpha float64
	Files []core.GapFileState
}

// loopIn is the loop half as GCKP0006 wrote it, loopOut as GCKP0007 does.
type loopIn struct {
	AccessCount int64
	LastRun     int
	Deferrals   []core.Deferral
	Skipped     []core.SkippedDecision
	Heat        []core.FileHeatState
	Gaps        *gapState
	Headroom    float64
}

type loopOut struct {
	AccessCount int64
	LastRun     int
	Deferrals   []core.Deferral
	Skipped     []core.SkippedDecision
	Gaps        *gapState
	Headroom    float64
}

type fileState struct {
	ID         int64
	Path       string
	Size       int64
	Device     string
	LastAccess float64
	Accesses   int64
}

type clusterOut struct {
	Now           float64
	RNG           uint64
	TotalAccesses int64
	Devices       []storagesim.DeviceState
	Files         []fileState
}

type head[L, C any] struct {
	Seed            int64
	Runs            int
	BootstrapLeft   int
	TpSum           float64
	TpCount         int64
	Engine          headEngine
	Loop            L
	Cluster         C
	WorkloadName    string
	Workload        []byte
	PolicyName      string
	Policy          []byte
	ReplayWatermark uint64
	Accesses        []replaydb.AccessRecord
	AccessCount     int
	Movements       []replaydb.MovementRecord
}

func TestConvert(t *testing.T) {
	in, out := os.Getenv("CONVERT_IN"), os.Getenv("CONVERT_OUT")
	file, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	if string(file[:8]) != "GCKP0006" || file[8] != 1 {
		t.Fatalf("not a GCKP0006 snapshot frame: %q", file[:9])
	}
	payload := file[13 : 13+le.Uint32(file[9:])]
	if crc32.ChecksumIEEE(payload) != le.Uint32(file[13+len(payload):]) {
		t.Fatal("CRC mismatch")
	}
	var secs [5][]byte
	rest := payload
	for i := range secs {
		n := le.Uint32(rest)
		secs[i], rest = rest[4:4+n], rest[4+n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last section", len(rest))
	}

	var old head[loopIn, storagesim.ClusterState]
	if err := gob.NewDecoder(bytes.NewReader(secs[0])).Decode(&old); err != nil {
		t.Fatal(err)
	}
	heat := make(map[int64]core.FileHeatState, len(old.Loop.Heat))
	for _, h := range old.Loop.Heat {
		heat[h.FileID] = h
	}
	c := old.Cluster
	cluster := clusterOut{Now: c.Now, RNG: c.RNG, TotalAccesses: c.TotalAccesses, Devices: c.Devices}
	for _, f := range c.Files {
		h := heat[f.ID]
		delete(heat, f.ID)
		cluster.Files = append(cluster.Files, fileState{f.ID, f.Path, f.Size, f.Device, h.LastAccess, h.Accesses})
	}
	if len(heat) != 0 {
		t.Fatalf("%d heat entries name files the cluster does not hold", len(heat))
	}
	l := old.Loop
	h := head[loopOut, clusterOut]{old.Seed, old.Runs, old.BootstrapLeft, old.TpSum, old.TpCount, old.Engine,
		loopOut{l.AccessCount, l.LastRun, l.Deferrals, l.Skipped, l.Gaps, l.Headroom},
		cluster, old.WorkloadName, old.Workload, old.PolicyName, old.Policy, old.ReplayWatermark, old.Accesses, old.AccessCount, old.Movements}
	if h.AccessCount == 0 {
		h.AccessCount = len(h.Accesses)
	}
	t.Logf("bootstrap %d, headroom %v, alpha %v, modelgen %d, cache %d, movements %d, accesses %d counted %d (was %d), heat %d of %d files",
		h.BootstrapLeft, l.Headroom, l.Gaps != nil && l.Gaps.Alpha != 0, h.Engine.ModelGen, len(h.Engine.ScoreCache),
		len(h.Movements), len(h.Accesses), h.AccessCount, old.AccessCount, len(l.Heat), len(c.Files))

	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(h); err != nil {
		t.Fatal(err)
	}
	oldHead := len(secs[0])
	secs[0] = hb.Bytes()
	var body []byte
	for _, s := range secs {
		body = append(le.AppendUint32(body, uint32(len(s))), s...)
	}
	outFile := append([]byte("GCKP0007"), 1)
	outFile = le.AppendUint32(outFile, uint32(len(body)))
	outFile = append(outFile, body...)
	outFile = le.AppendUint32(outFile, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(out, outFile, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("head %d → %d bytes, file %d → %d bytes", oldHead, len(secs[0]), len(file), len(outFile))
}
