package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fitAllocs returns what one Fit of model 1 allocates, in bytes and in
// objects: the least of three runs each, since the runtime's own
// allocations land in the same counters.
func fitAllocs(t *testing.T, ds *Dataset, epochs int) (bytes, objects int64) {
	t.Helper()
	bytes, objects = -1, -1
	for i := 0; i < 3; i++ {
		net, err := BuildModel(1, 6, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := FitConfig{
			Epochs: epochs, BatchSize: 32, Optimizer: &SGD{LR: 0.05},
			Rng: rand.New(rand.NewSource(2)),
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := net.Fit(ds, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := int64(after.TotalAlloc - before.TotalAlloc); bytes < 0 || b < bytes {
			bytes = b
		}
		if o := int64(after.Mallocs - before.Mallocs); objects < 0 || o < objects {
			objects = o
		}
	}
	return bytes, objects
}

// What a dense Fit allocates is its scratch, built once per call, and the
// shuffle permutation (one int32 per sample): nothing per minibatch and
// nothing per epoch. A mat.New, Clone or closure that slips back into the
// training loop shows up here as growth with the sample or epoch count,
// on any machine, long before a benchmark run would notice it.
func TestFitAllocations(t *testing.T) {
	const (
		slackBytes   = 8 << 10
		slackObjects = 32
		permBytes    = 4 // the anchor permutation: one int32 per sample
		// One Fit of model 1 on 2000 samples, as Go 1.24 reads it.
		readingBytes   = 148264
		readingObjects = 42
	)
	// One-sided: a leak is growth. A negative difference only says that the
	// baseline run carried more of the runtime's own allocations than the
	// longer one.
	within := func(v, slack int64) bool { return v <= slack }
	small := testDataset(rand.New(rand.NewSource(8)), 2000, 6)
	large := testDataset(rand.New(rand.NewSource(8)), 8000, 6)
	baseB, baseO := fitAllocs(t, small, 1)
	largeB, largeO := fitAllocs(t, large, 1)
	if d := largeB - baseB - permBytes*(8000-2000); !within(d, slackBytes) || !within(largeO-baseO, slackObjects) {
		t.Errorf("8000 samples allocate %d B beyond the permutation and %d objects more than 2000 samples (%d B, %d objects)",
			d, largeO-baseO, baseB, baseO)
	}
	epochsB, epochsO := fitAllocs(t, small, 4)
	if !within(epochsB-baseB, slackBytes) || !within(epochsO-baseO, slackObjects) {
		t.Errorf("4 epochs allocate %d B and %d objects more than 1 epoch (%d B, %d objects)",
			epochsB-baseB, epochsO-baseO, baseB, baseO)
	}
	// Model 1's scratch at batch 32 is about 140 kB in about 40 objects
	// (no dZ buffers: the backward pass gates in place), the permutation
	// of 2000 samples 8 kB. The ceiling is the reading plus the slack, so
	// that an older runtime's own allocations still fit under it.
	if baseB > readingBytes+slackBytes || baseO > readingObjects+slackObjects {
		t.Errorf("one Fit allocates %d B in %d objects; it read %d B in %d on Go 1.24",
			baseB, baseO, readingBytes, readingObjects)
	}
}

// The scratch dies with the Fit that built it: training again on the same
// network leaves the live heap where it was, so nothing sized by the batch
// is parked on the Network or its layers between training cycles.
func TestFitRetainsNothing(t *testing.T) {
	ds := testDataset(rand.New(rand.NewSource(8)), 2000, 6)
	net, err := BuildModel(1, 6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	fit := func() {
		if _, err := net.Fit(ds, FitConfig{Epochs: 1, BatchSize: 32, Optimizer: &SGD{LR: 0.05}}); err != nil {
			t.Fatal(err)
		}
	}
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// Anything Fit parked on the network would show on every repeat;
	// the least growth of three discounts the runtime's own garbage.
	fit()
	grew := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		before := live()
		fit()
		if g := live() - before; g < grew {
			grew = g
		}
	}
	if grew > 16<<10 {
		t.Errorf("another Fit left %d B more on the live heap", grew)
	}
}

// predictAllocs returns what one Predict of ds allocates beyond its
// predictions, in bytes and objects: the least of three runs each.
func predictAllocs(t *testing.T, net *Network, ds *Dataset) (bytes, objects int64) {
	t.Helper()
	bytes, objects = -1, -1
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		preds, _ := net.Predict(ds)
		runtime.ReadMemStats(&after)
		b := int64(after.TotalAlloc-before.TotalAlloc) - 8*int64(len(preds))
		if bytes < 0 || b < bytes {
			bytes = b
		}
		if o := int64(after.Mallocs - before.Mallocs); objects < 0 || o < objects {
			objects = o
		}
	}
	return bytes, objects
}

// A dense Predict allocates its predictions and one minibatch-high
// scratch, whatever the number of rows: a validation pass after a fit
// costs no more activation memory than one training step did.
func TestPredictAllocations(t *testing.T) {
	const (
		slackBytes   = 8 << 10 // the allocator's rounding of the predictions, headers
		slackObjects = 4
	)
	net, err := BuildModel(1, 6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	small := testDataset(rand.New(rand.NewSource(8)), 2400, 6)
	large := testDataset(rand.New(rand.NewSource(8)), 24000, 6)
	smallB, smallO := predictAllocs(t, net, small)
	largeB, largeO := predictAllocs(t, net, large)
	if largeB-smallB > slackBytes || largeO-smallO > slackObjects {
		t.Errorf("24000 rows allocate %d B and %d objects beyond their predictions, 2400 rows %d B and %d objects",
			largeB, largeO, smallB, smallO)
	}
	// One minibatch-high block (FitConfig's default BatchSize) of every
	// layer's output, the last one's included.
	const minibatch = 32
	var width int
	for _, d := range net.flat {
		width += d.Out
	}
	if scratch := int64(8 * minibatch * width); smallB > scratch+slackBytes {
		t.Errorf("2400 rows allocate %d B beyond their predictions; one %d-row scratch is %d B",
			smallB, minibatch, scratch)
	}
}
