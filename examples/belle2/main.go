// The BELLE II scenario (§IV, §VI experiment 1): compare Geomancy against
// the LFU heuristic — the paper's strongest base case — on the same
// workload and system, and report the throughput gain.
//
//	go run ./examples/belle2
package main

import (
	"context"
	"fmt"
	"log"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"

	"geomancy"
)

const (
	runs     = 16
	cooldown = 4
	seed     = 7
)

func main() {
	lfuMean, err := runLFU()
	if err != nil {
		log.Fatal(err)
	}
	geoMean, err := runGeomancy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLFU mean:      %.2f GB/s\n", lfuMean/1e9)
	fmt.Printf("Geomancy mean: %.2f GB/s\n", geoMean/1e9)
	fmt.Printf("gain:          %+.1f%%  (paper reports 11–30%% over heuristics)\n",
		(geoMean/lfuMean-1)*100)
}

// runLFU drives the workload with the LFU base case re-deciding the
// layout every cooldown runs, exactly as §VI describes.
func runLFU() (float64, error) {
	cluster := storagesim.NewBluesky(seed)
	files := trace.BelleFileSet(seed)
	runner := workload.NewRunner(cluster, files, 1, seed)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		return 0, err
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		return 0, err
	}
	defer db.Close()

	lastAccess := map[int64]float64{}
	accessCount := map[int64]int64{}
	var tpSum float64
	var tpN int64
	lfu := policy.LFU()

	fmt.Println("LFU base case:")
	for r := 0; r < runs; r++ {
		stats, err := runner.RunOnce(func(res storagesim.AccessResult, wl, run int) {
			lastAccess[res.FileID] = res.End
			accessCount[res.FileID]++
			tpSum += res.Throughput
			tpN++
			db.AppendAccess(replaydb.AccessRecord{
				Time: res.Start, FileID: res.FileID, Device: res.Device,
				BytesRead: res.BytesRead, BytesWritten: res.BytesWritten,
				Throughput: res.Throughput,
			})
		})
		if err != nil {
			return 0, err
		}
		fmt.Printf("  run %2d: mean %.2f GB/s\n", r, stats.MeanThroughput/1e9)
		if (r+1)%cooldown != 0 {
			continue
		}
		// Snapshot the state the way the paper's base cases do: device
		// ranking from fresh ReplayDB telemetry.
		var st policy.State
		for _, name := range cluster.DeviceNames() {
			recent := db.RecentByDevice(name, 200)
			var tp float64
			for i := range recent {
				tp += recent[i].Throughput
			}
			if len(recent) > 0 {
				tp /= float64(len(recent))
			}
			st.Devices = append(st.Devices, policy.DeviceInfo{Name: name, Throughput: tp, Free: cluster.Device(name).Free()})
		}
		layout := cluster.Layout()
		for _, f := range files {
			st.Files = append(st.Files, policy.FileInfo{
				ID: f.ID, Size: f.Size, Device: layout[f.ID],
				LastAccess: lastAccess[f.ID], Accesses: accessCount[f.ID],
			})
		}
		proposal, err := lfu.Propose(context.Background(), st)
		if err != nil {
			return 0, err
		}
		if proposal != nil {
			if _, err := runner.ApplyLayout(proposal); err != nil {
				return 0, err
			}
		}
	}
	return tpSum / float64(tpN), nil
}

// runGeomancy drives the same workload through the public API.
func runGeomancy() (float64, error) {
	sys, err := geomancy.New(
		geomancy.WithSeed(seed),
		geomancy.WithEpochs(40),
		geomancy.WithTrainingWindow(800),
		geomancy.WithCooldown(cooldown),
		geomancy.WithBootstrapRuns(cooldown),
	)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	fmt.Println("Geomancy dynamic:")
	for r := 0; r < runs; r++ {
		stats, err := sys.Run()
		if err != nil {
			return 0, err
		}
		fmt.Printf("  run %2d: mean %.2f GB/s\n", r, stats.MeanThroughput/1e9)
	}
	return sys.MeanThroughput(), nil
}
