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

	"geomancy/internal/core"
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

	var tpSum float64
	var tpN int64
	lfu := policy.LFU()

	fmt.Println("LFU base case:")
	for r := 0; r < runs; r++ {
		stats, err := runner.RunOnce(func(res storagesim.AccessResult, wl, run int) {
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
		// ranking from fresh ReplayDB telemetry, each file's access count
		// from the cluster's file table.
		proposal, err := lfu.Propose(context.Background(), core.PolicyState(db, cluster, files))
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
