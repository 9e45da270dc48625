// Command experiment regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	experiment -id fig4|table1|table2|table3|fig5a|fig5b|table4|fig6|overhead|all|ablations|ablation-<name>|matrix|weighted
//	           [-scale quick|paper] [-seed N] [-csv]
//
// -id matrix runs the per-scenario policy matrix: every workload
// scenario under every baseline policy and the learned Geomancy family,
// at ten seeds from -seed up. Each cell is the median [q1, q3] of the
// policy's mean throughput over the seeds, and each learned variant's
// cell counts its paired wins: the seeds at which it beat classic
// Geomancy on that scenario.
//
// At -scale paper the model search (table2) trains all 23 architectures
// for 200 epochs and takes minutes of CPU time; -scale quick (the default)
// reproduces the shape in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"geomancy/internal/experiments"
)

// matrixSeeds is the number of seeds -id matrix runs per cell.
const matrixSeeds = 10

func main() {
	id := flag.String("id", "all", "experiment id: fig4, table1, table2, table3, fig5a, fig5b, table4, fig6, overhead, all, "+
		"matrix, weighted, ablations, ablation-{epsilon,cooldown,smoothing,optimizer,gaps}")
	scale := flag.String("scale", "quick", "quick or paper")
	seed := flag.Int64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	flag.Parse()

	var opts experiments.Options
	switch *scale {
	case "quick":
		opts = experiments.Quick(*seed)
	case "paper":
		opts = experiments.Paper(*seed)
	default:
		fmt.Fprintf(os.Stderr, "experiment: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}

	ids := []string{*id}
	switch *id {
	case "all":
		ids = []string{"fig4", "table1", "table2", "table3", "fig5a", "fig5b", "table4", "fig6", "overhead"}
	case "ablations":
		ids = []string{"ablation-epsilon", "ablation-cooldown", "ablation-smoothing",
			"ablation-optimizer", "ablation-gaps"}
	}
	for _, one := range ids {
		start := time.Now()
		if err := runExperiment(one, opts, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", one, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", one, time.Since(start).Round(time.Millisecond))
	}
}

func emit(t *experiments.Table, csv bool) error {
	if csv {
		return t.RenderCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

func runExperiment(id string, opts experiments.Options, csv bool) error {
	switch id {
	case "fig4":
		res, err := experiments.Fig4(opts)
		if err != nil {
			return err
		}
		return emit(res.Table(), csv)
	case "table1":
		return emit(experiments.Table1(), csv)
	case "table2":
		res, err := experiments.Table2(opts)
		if err != nil {
			return err
		}
		return emit(res.Table(), csv)
	case "table3":
		res, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		return emit(res.Table(), csv)
	case "fig5a":
		res, err := experiments.Fig5a(opts)
		if err != nil {
			return err
		}
		if err := emit(res.SummaryTable("Fig. 5a — Geomancy vs dynamic policies"), csv); err != nil {
			return err
		}
		if !csv {
			if err := experiments.RenderChart(os.Stdout, res.Series, 12); err != nil {
				return err
			}
			return experiments.RenderSeries(os.Stdout, res.Series)
		}
		return nil
	case "fig5b":
		res, err := experiments.Fig5b(opts)
		if err != nil {
			return err
		}
		if err := emit(res.SummaryTable("Fig. 5b — Geomancy vs static placements"), csv); err != nil {
			return err
		}
		if !csv {
			if err := experiments.RenderChart(os.Stdout, res.Series, 12); err != nil {
				return err
			}
			return experiments.RenderSeries(os.Stdout, res.Series)
		}
		return nil
	case "table4":
		res, err := experiments.Table4(opts)
		if err != nil {
			return err
		}
		return emit(res.Table(), csv)
	case "fig6":
		res, err := experiments.Fig6(opts)
		if err != nil {
			return err
		}
		fmt.Println(res.Summary())
		if err := experiments.RenderChart(os.Stdout, []experiments.Series{res.Tuned, res.Untuned}, 12); err != nil {
			return err
		}
		return experiments.RenderSeries(os.Stdout, []experiments.Series{res.Tuned, res.Untuned})
	case "overhead":
		res, err := experiments.Overhead(opts)
		if err != nil {
			return err
		}
		return emit(res.Table(), csv)
	case "matrix":
		res, err := experiments.PolicyMatrix(opts, nil, matrixSeeds)
		if err != nil {
			return err
		}
		return emit(res.Table(), csv)
	case "weighted":
		res, err := experiments.WeightedPolicies(opts)
		if err != nil {
			return err
		}
		return emit(res.SummaryTable("Extension — capacity-weighted heuristics vs Geomancy"), csv)
	case "ablation-epsilon":
		return runAblation(experiments.AblationEpsilon, opts, csv)
	case "ablation-cooldown":
		return runAblation(experiments.AblationCooldown, opts, csv)
	case "ablation-smoothing":
		return runAblation(experiments.AblationSmoothing, opts, csv)
	case "ablation-optimizer":
		return runAblation(experiments.AblationOptimizer, opts, csv)
	case "ablation-gaps":
		return runAblation(experiments.AblationGapScheduling, opts, csv)
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
}

func runAblation(f func(experiments.Options) (*experiments.AblationResult, error), opts experiments.Options, csv bool) error {
	res, err := f(opts)
	if err != nil {
		return err
	}
	return emit(res.Table(), csv)
}
