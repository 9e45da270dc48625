// This file is the converter that rewrote online_gaps_parent.ckpt from the
// GCKP0005 format it was written in to GCKP0006. It builds against the
// types of the commit that wrote the fixture, not against this tree, and
// lives under testdata/ so the go command ignores it. To run it again:
//
//	git show 630913b:testdata/online_gaps_parent.ckpt > /tmp/gckp0005.ckpt
//	git clone . /tmp/writer && git -C /tmp/writer checkout 4c91eef
//	cp testdata/migrate_gckp0006/convert_test.go /tmp/writer/internal/checkpoint/
//	cd /tmp/writer && CONVERT_IN=/tmp/gckp0005.ckpt CONVERT_OUT=/tmp/gckp0006.ckpt \
//		go test -run TestConvert -v ./internal/checkpoint/
//
// Its output is byte-identical to the committed fixture (181 067 bytes).
// What it changes, and nothing else:
//
//   - Engine.Net, a gob blob of the network, is decoded. Its architecture
//     (Desc, InSize, Window, Layers) goes into the head as Engine.Net; its
//     parameters become the weight section; its optimizer state (nil in
//     this file) is dropped.
//   - Stats, Loop.TrainLog and Loop.Movements move from the head to their
//     fixed-width sections. TrainReport.Epochs, which that commit did not
//     have, is written as 0. TrainReport.Test, which the current type does
//     not have, is left out, as gob dropped it on reading the old file.
//   - Every other field is re-encoded by gob under its old name with the
//     value decoded, so the fields the current types no longer have
//     (BootstrapLeft, Loop.Headroom, Gaps.Alpha, Engine.ModelGen and
//     ScoreCache, the replay movements) stay in the file for the reader to
//     drop.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/features"
	"geomancy/internal/nn"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

type netSpec struct {
	Desc   string
	InSize int
	Window int
	Layers []nn.LayerSpec
	Params [][]float64
	Opt    *nn.OptimizerState
}

type headEngine struct {
	RNG           uint64
	Net           netSpec
	Devices       []string
	FeatScaler    features.MinMaxState
	TargetScaler  features.ScalarState
	ValMetrics    nn.Metrics
	Trained       bool
	DecisionCount uint64
	ModelGen      uint64
	LastWatermark uint64
	ScoreCache    []core.FileScoreState
}

type head struct {
	Seed            int64
	Runs            int
	BootstrapLeft   int
	TpSum           float64
	TpCount         int64
	Engine          headEngine
	Loop            core.LoopState
	Cluster         storagesim.ClusterState
	WorkloadName    string
	Workload        []byte
	PolicyName      string
	Policy          []byte
	ReplayWatermark uint64
	Accesses        []replaydb.AccessRecord
	Movements       []replaydb.MovementRecord
}

func TestConvert(t *testing.T) {
	in, out := os.Getenv("CONVERT_IN"), os.Getenv("CONVERT_OUT")
	snap, err := Load(in)
	if err != nil {
		t.Fatal(err)
	}
	var net netSpec
	if err := gob.NewDecoder(bytes.NewReader(snap.Engine.Net)).Decode(&net); err != nil {
		t.Fatal(err)
	}
	e := snap.Engine
	h := head{snap.Seed, snap.Runs, snap.BootstrapLeft, snap.TpSum, snap.TpCount,
		headEngine{e.RNG, net, e.Devices, e.FeatScaler, e.TargetScaler, e.ValMetrics, e.Trained, e.DecisionCount, e.ModelGen, e.LastWatermark, e.ScoreCache},
		snap.Loop, snap.Cluster, snap.WorkloadName, snap.Workload, snap.PolicyName, snap.Policy, snap.ReplayWatermark, snap.Accesses, snap.Movements}
	h.Engine.Net.Params = nil
	h.Loop.TrainLog, h.Loop.Movements = nil, nil
	t.Logf("opt %v, bootstrap %d, headroom %v, alpha %v, modelgen %d, cache %d, movements %d, accesses %d",
		net.Opt != nil, h.BootstrapLeft, h.Loop.Headroom, h.Loop.Gaps != nil && h.Loop.Gaps.Alpha != 0, h.Engine.ModelGen, len(h.Engine.ScoreCache), len(h.Movements), len(h.Accesses))
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(h); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	sec := func(p []byte, b []byte) []byte { return append(le.AppendUint32(p, uint32(len(b))), b...) }
	u := func(b []byte, v uint64) []byte { return le.AppendUint64(b, v) }
	f := func(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }
	var weights, stats, train, moves []byte
	for _, p := range net.Params {
		for _, v := range p {
			weights = f(weights, v)
		}
	}
	for _, s := range snap.Stats {
		stats = u(stats, uint64(s.Run))
		stats = u(stats, uint64(s.Accesses))
		stats = u(stats, uint64(s.Bytes))
		stats = f(stats, s.MeanThroughput)
		stats = f(stats, s.Duration)
		stats = f(stats, s.LatencyP50)
		stats = f(stats, s.LatencyP95)
		stats = f(stats, s.LatencyP99)
	}
	for _, r := range snap.Loop.TrainLog {
		train = u(train, uint64(r.Samples))
		train = u(train, 0) // Epochs did not exist yet
		train = f(train, r.FinalLoss)
		train = f(train, r.Validation.MARE)
		train = f(train, r.Validation.MAREStd)
		train = f(train, r.Validation.SignedRelErr)
		d := byte(0)
		if r.Validation.Diverged {
			d = 1
		}
		train = append(train, d)
		train = u(train, uint64(r.Validation.N))
		train = u(train, uint64(r.Duration))
	}
	for _, m := range snap.Loop.Movements {
		moves = u(moves, uint64(m.AccessIndex))
		moves = u(moves, uint64(m.Moved))
		moves = u(moves, uint64(m.Run))
		moves = u(moves, uint64(m.Random))
	}
	var payload []byte
	for _, s := range [][]byte{hb.Bytes(), weights, stats, train, moves} {
		payload = sec(payload, s)
	}
	file := append([]byte("GCKP0006"), 1)
	file = le.AppendUint32(file, uint32(len(payload)))
	file = append(file, payload...)
	file = le.AppendUint32(file, crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(out, file, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("stats %d train %d moves %d weights %d, file %d bytes", len(snap.Stats), len(snap.Loop.TrainLog), len(snap.Loop.Movements), len(weights)/8, len(file))
}
