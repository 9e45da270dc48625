package replaydb

import (
	"math"
	"testing"
)

func TestSummary(t *testing.T) {
	db := memDB(t)
	// Two devices with known throughputs.
	for i, tp := range []float64{100, 200, 300} {
		db.AppendAccess(AccessRecord{Time: float64(i), Device: "a", FileID: 1, BytesRead: 10, Throughput: tp})
	}
	db.AppendAccess(AccessRecord{Time: 9, Device: "b", FileID: 2, BytesWritten: 5, Throughput: 50})

	sums := db.Summary()
	if len(sums) != 2 || sums[0].Device != "a" || sums[1].Device != "b" {
		t.Fatalf("summaries = %+v", sums)
	}
	a := sums[0]
	if a.Accesses != 3 || a.MeanThroughput != 200 {
		t.Errorf("a = %+v", a)
	}
	wantStd := math.Sqrt((100.0*100 + 0 + 100*100) / 3)
	if math.Abs(a.StdThroughput-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", a.StdThroughput, wantStd)
	}
	if a.Bytes != 30 || a.FirstTime != 0 || a.LastTime != 2 {
		t.Errorf("a aggregates = %+v", a)
	}
	if sums[1].Bytes != 5 {
		t.Errorf("b bytes = %d", sums[1].Bytes)
	}
}

func TestSummaryEmpty(t *testing.T) {
	db := memDB(t)
	if got := db.Summary(); len(got) != 0 {
		t.Errorf("empty db summary = %+v", got)
	}
}
