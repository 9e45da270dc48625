package core

import (
	"context"
	"errors"
	"testing"

	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)th call on: nn.Fit checks it once before each epoch, so a fit under
// it trains n epochs and then stops.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// appendAccesses appends k synthetic accesses, round-robin over every
// device and over files from…24, stamped after every record in db.
func appendAccesses(t *testing.T, db *replaydb.DB, k int, from int64) {
	t.Helper()
	for i := 0; i < k; i++ {
		at := int64(10_000) + int64(db.Watermark())
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time: float64(at), FileID: from + int64(i)%(25-from), Device: testDevices[i%len(testDevices)],
			BytesRead: 3e8, OpenTS: at, CloseTS: at, CloseTMS: 500, Throughput: 1e9 + float64(i%7)*1e8,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmFitEpochBudget: a cold full fit trains Config.Epochs; a warm one
// ceil(Epochs × new ÷ rows), at least one and at most Epochs, where new is
// the records taken since the last successful full fit; FixedEpochs and
// the update path keep their fixed counts; and a restored snapshot without
// the mark, like a cancelled fit, leaves the next fit counting from the
// last fit that succeeded.
func TestWarmFitEpochBudget(t *testing.T) {
	const epochs = 8
	cfg := Config{Epochs: epochs, WindowX: 100, Seed: 1} // 6 × 100 = 600 rows once the windows fill
	newEngine := func(t *testing.T, db *replaydb.DB, cfg Config) *Engine {
		t.Helper()
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	train := func(t *testing.T, e *Engine, ctx context.Context) TrainReport {
		t.Helper()
		rep, err := e.TrainContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ceilShare := func(k, n int) int { return (epochs*k + n - 1) / n }
	bg := context.Background()

	t.Run("cold, then none new, then k new, then more than the window", func(t *testing.T) {
		db := seedDB(t, 1200)
		e := newEngine(t, db, cfg)
		reg := telemetry.NewRegistry()
		e.SetMetrics(reg)
		if rep := train(t, e, bg); rep.Epochs != epochs || rep.Samples != 600 {
			t.Fatalf("cold fit trained %d epochs on %d rows, want %d on 600", rep.Epochs, rep.Samples, epochs)
		}
		if got := reg.Gauge(telemetry.MetricTrainingEpochs).Value(); got != epochs {
			t.Errorf("epochs gauge %v after the cold fit, want %d", got, epochs)
		}
		if rep := train(t, e, bg); rep.Epochs != 1 {
			t.Errorf("warm fit with no new records trained %d epochs, want 1", rep.Epochs)
		}
		if got := reg.Gauge(telemetry.MetricTrainingEpochs).Value(); got != 1 {
			t.Errorf("epochs gauge %v after a one-epoch fit, want 1", got)
		}
		for _, k := range []int{1, 75, 160, 400} {
			appendAccesses(t, db, k, 1)
			rep := train(t, e, bg)
			if want := ceilShare(k, rep.Samples); rep.Epochs != want || rep.Samples != 600 {
				t.Errorf("warm fit after %d new records trained %d epochs on %d rows, want %d on 600", k, rep.Epochs, rep.Samples, want)
			}
		}
		for _, k := range []int{600, 1500} {
			appendAccesses(t, db, k, 1)
			if rep := train(t, e, bg); rep.Epochs != epochs {
				t.Errorf("warm fit after %d new records (window 600) trained %d epochs, want %d", k, rep.Epochs, epochs)
			}
		}
	})

	t.Run("FixedEpochs", func(t *testing.T) {
		db := seedDB(t, 1200)
		fixed := cfg
		fixed.FixedEpochs = true
		e := newEngine(t, db, fixed)
		for i, k := range []int{0, 0, 30} {
			appendAccesses(t, db, k, 1)
			if rep := train(t, e, bg); rep.Epochs != epochs {
				t.Errorf("fit %d under FixedEpochs trained %d epochs, want %d", i, rep.Epochs, epochs)
			}
		}
	})

	t.Run("UpdateContext", func(t *testing.T) {
		db := seedDB(t, 1200)
		e := newEngine(t, db, cfg)
		train(t, e, bg)
		for i, k := range []int{0, 30, 900} {
			appendAccesses(t, db, k, 1)
			rep, err := e.UpdateContext(bg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Epochs != DefaultUpdateEpochs {
				t.Errorf("update %d trained %d epochs, want %d", i, rep.Epochs, DefaultUpdateEpochs)
			}
		}
		// Updates do not move the mark: the 930 records are still new.
		if rep := train(t, e, bg); rep.Epochs != epochs {
			t.Errorf("full fit after updates over 930 new records trained %d epochs, want %d", rep.Epochs, epochs)
		}
	})

	t.Run("restored without the mark", func(t *testing.T) {
		db := seedDB(t, 1200)
		e := newEngine(t, db, cfg)
		train(t, e, bg)
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		if st.TrainedSeq != db.Watermark() {
			t.Errorf("snapshot mark %d, want the newest Seq read, %d", st.TrainedSeq, db.Watermark())
		}
		st.TrainedSeq = 0 // what gob decodes from a snapshot taken before the field existed
		r := newEngine(t, db, cfg)
		if err := r.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if rep := train(t, r, bg); rep.Epochs != epochs {
			t.Errorf("first fit after restoring a snapshot without the mark trained %d epochs, want %d", rep.Epochs, epochs)
		}
		if rep := train(t, r, bg); rep.Epochs != 1 {
			t.Errorf("second fit after the restore trained %d epochs, want 1", rep.Epochs)
		}
	})

	t.Run("cancelled fit keeps the mark", func(t *testing.T) {
		db := seedDB(t, 1200)
		e := newEngine(t, db, cfg)
		train(t, e, bg)
		mark := e.trainedSeq
		const k = 160
		appendAccesses(t, db, k, 1)
		if _, err := e.TrainContext(&cancelAfter{Context: bg, n: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("fit cancelled after one epoch returned %v, want context.Canceled", err)
		}
		if e.trainedSeq != mark {
			t.Errorf("cancelled fit moved the mark %d → %d", mark, e.trainedSeq)
		}
		if rep := train(t, e, bg); rep.Epochs != ceilShare(k, rep.Samples) {
			t.Errorf("fit after a cancelled one trained %d epochs, want %d (the cancelled fit's records still new)",
				rep.Epochs, ceilShare(k, rep.Samples))
		}
	})
}

// TestDecisionAfterCancelledFitScoresEveryCandidate: a full fit cancelled
// after it refitted the scalers and trained an epoch leaves a new model,
// and the next decision scores every candidate it picks from under that
// model: each score equals predictCandidate's, none is the previous
// model's. The same holds when the cancelled fit ran beside a decision's
// model-free half prepared ahead (Parallelism 4), which is then dropped.
func TestDecisionAfterCancelledFitScoresEveryCandidate(t *testing.T) {
	for _, prepared := range []bool{false, true} {
		t.Run(map[bool]string{false: "serial", true: "prepared"}[prepared], func(t *testing.T) {
			db := seedDB(t, 1200)
			cfg := quickCfg()
			cfg.Epsilon = 0
			cfg.TopK = 1
			cfg.Parallelism = 4
			e, err := NewEngine(db, testDevices, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := e.TrainContext(ctx); err != nil {
				t.Fatal(err)
			}
			files := []policy.FileInfo{{ID: 1, Size: 5e8, Device: "pic"}, {ID: 2, Size: 9e8, Device: "tmp"}}
			if _, _, _, err := e.proposeScored(ctx, files); err != nil {
				t.Fatal(err)
			}
			// A full window of new records on other files: files 1 and 2 stay
			// clean, and the fit has every epoch to train.
			appendAccesses(t, db, 6*cfg.WindowX, 3)
			m := e.lone()
			if prepared {
				m.prepareAhead(files)
			}
			if _, err := e.TrainContext(&cancelAfter{Context: ctx, n: 2}); !errors.Is(err, context.Canceled) {
				t.Fatalf("fit cancelled after two epochs returned %v, want context.Canceled", err)
			}
			m.drop()
			_, _, scores, err := e.proposeScored(ctx, files)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range files {
				if len(scores[i]) == 0 {
					t.Fatalf("file %d has no score after the cancelled fit", f.ID)
				}
				for dev, got := range scores[i] {
					if want := e.predictCandidate(f, dev); got != want {
						t.Errorf("file %d on %s: scored %v, the model now predicts %v", f.ID, dev, got, want)
					}
				}
			}
		})
	}
}
