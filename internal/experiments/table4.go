package experiments

import (
	"fmt"

	"geomancy/internal/policy"
)

// Table4Row is one row of the storage-point comparison.
type Table4Row struct {
	Name string
	// Mean and Std summarize the per-access throughput (bytes/s).
	Mean, Std float64
	// Usage is the share of accesses served by the device during the
	// Geomancy run, in percent (Geomancy's own row reports 100).
	Usage float64
}

// Table4Result reproduces the paper's Table IV: the throughput of placing
// every file on a single storage point, for each point, against Geomancy's
// learned layout, plus how Geomancy actually utilized each device.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs experiment 2 (§VI-b): one all-files-on-one-mount run per
// device, then a Geomancy dynamic run whose per-device access shares form
// the utilization column.
func Table4(opts Options) (*Table4Result, error) {
	opts = opts.withDefaults()
	res := &Table4Result{}

	// Per-device single-mount runs.
	deviceNames := []string{"USBtmp", "pic", "tmp", "file0", "var", "people"}
	perDevice := make(map[string]Series)
	for _, dev := range deviceNames {
		s, tb, err := runPolicy(&policy.SingleMount{Device: dev}, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: all-on-%s: %w", dev, err)
		}
		tb.db.Close()
		perDevice[dev] = s
	}

	// Geomancy run for the utilization column and its own row.
	geo, loop, tb, err := runGeomancyDynamic(opts)
	if err != nil {
		return nil, err
	}
	defer tb.db.Close()
	_ = loop

	var totalAccesses int64
	usage := make(map[string]float64)
	for _, st := range tb.cluster.DeviceStats() {
		totalAccesses += st.Accesses
	}
	for _, st := range tb.cluster.DeviceStats() {
		if totalAccesses > 0 {
			usage[st.Name] = float64(st.Accesses) / float64(totalAccesses) * 100
		}
	}

	for _, dev := range deviceNames {
		s := perDevice[dev]
		res.Rows = append(res.Rows, Table4Row{Name: dev, Mean: s.Mean, Std: s.Std, Usage: usage[dev]})
	}
	res.Rows = append(res.Rows, Table4Row{Name: "Geomancy", Mean: geo.Mean, Std: geo.Std, Usage: 100})
	return res, nil
}

// Table renders the result as the paper's Table IV.
func (r *Table4Result) Table() *Table {
	t := &Table{
		Title:  "Table IV — performance and utilization of storage points available to Geomancy",
		Header: []string{"storage point", "avg throughput (GB/s)", "avg usage (%)"},
		Caption: "Per-device rows: every file served from that mount alone. " +
			"Usage: share of accesses Geomancy dynamic directed to the device.",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.2f ± %.2f", row.Mean/1e9, row.Std/1e9),
			fmt.Sprintf("%.2f", row.Usage),
		})
	}
	return t
}
