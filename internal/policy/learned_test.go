package policy

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"geomancy/internal/rng"
)

// stubModel is a canned Model: counts Retrain/Update calls and replays a
// fixed proposal.
type stubModel struct {
	retrains, updates int
	notReadyUntil     int // Update fails with ErrNotReady before this many retrains
	layout            map[int64]string
	preds             []Prediction
}

func (m *stubModel) Retrain(context.Context) error { m.retrains++; return nil }

func (m *stubModel) Update(context.Context) error {
	if m.retrains < m.notReadyUntil {
		return fmt.Errorf("stub: %w", ErrNotReady)
	}
	m.updates++
	return nil
}

func (m *stubModel) Propose(context.Context, State) (map[int64]string, []Prediction, error) {
	return m.layout, m.preds, nil
}

func TestOnlineRetrainCadence(t *testing.T) {
	m := &stubModel{}
	p := &Online{Model: m}
	ctx := context.Background()
	for i := 0; i < 2*retrainEvery+1; i++ {
		if _, err := p.Propose(ctx, State{}); err != nil {
			t.Fatal(err)
		}
	}
	// Calls 0, 4, 8 retrain; 1–3 and 5–7 update.
	if m.retrains != 3 || m.updates != 6 {
		t.Errorf("retrains=%d updates=%d, want 3/6", m.retrains, m.updates)
	}
}

func TestOnlineFallsBackOnNotReady(t *testing.T) {
	// The model rejects updates until it has seen 2 retrains: the policy
	// must fall back to a retrain instead of proposing untrained.
	m := &stubModel{notReadyUntil: 2}
	p := &Online{Model: m}
	ctx := context.Background()
	if _, err := p.Propose(ctx, State{}); err != nil { // call 0: retrain
		t.Fatal(err)
	}
	if _, err := p.Propose(ctx, State{}); err != nil { // call 1: update → not ready → retrain
		t.Fatal(err)
	}
	if m.retrains != 2 || m.updates != 0 {
		t.Errorf("retrains=%d updates=%d, want 2/0 (fallback)", m.retrains, m.updates)
	}
	if _, err := p.Propose(ctx, State{}); err != nil { // call 2: update succeeds now
		t.Fatal(err)
	}
	if m.updates != 1 {
		t.Errorf("updates=%d, want 1", m.updates)
	}
}

func TestOnlineStateRoundTrip(t *testing.T) {
	m := &stubModel{}
	p := &Online{Model: m}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.Propose(ctx, State{}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Online{Model: &stubModel{}}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.calls != p.calls {
		t.Errorf("restored calls=%d, want %d", restored.calls, p.calls)
	}
	// The restored counter keeps the cadence phase: call 3 is an update,
	// where a counter reset to zero would retrain.
	rm := restored.Model.(*stubModel)
	if _, err := restored.Propose(ctx, State{}); err != nil {
		t.Fatal(err)
	}
	if rm.retrains != 0 || rm.updates != 1 {
		t.Errorf("restored cadence: retrains=%d updates=%d, want 0/1", rm.retrains, rm.updates)
	}
}

func TestUnmarshalBadState(t *testing.T) {
	p := &Online{Model: &stubModel{}}
	if err := p.UnmarshalState([]byte("not gob")); !errors.Is(err, ErrBadState) {
		t.Errorf("err = %v, want ErrBadState", err)
	}
}

func TestRandomStaticStateRoundTrip(t *testing.T) {
	s := testState(12)
	p := &RandomStatic{Rng: rng.New(9)}
	ctx := context.Background()
	if _, err := p.Propose(ctx, s); err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RandomStatic{}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	// The one-shot flag survives: the restored policy must not re-fire.
	layout, err := restored.Propose(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if layout != nil {
		t.Error("restored random-static re-fired its one-shot layout")
	}
}

func TestRandomDynamicStateRoundTrip(t *testing.T) {
	s := testState(12)
	a := &RandomDynamic{Rng: rng.New(9)}
	b := &RandomDynamic{Rng: rng.New(9)}
	ctx := context.Background()
	if _, err := a.Propose(ctx, s); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Propose(ctx, s); err != nil {
		t.Fatal(err)
	}
	// Round-trip a's RNG register into a fresh instance: its next draw
	// must match b's (same stream, same position).
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RandomDynamic{}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	la, err := restored.Propose(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Propose(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Error("restored random-dynamic diverged from the uninterrupted stream")
	}
}

func TestOneShotStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Policy
	}{
		{"static", func() Policy { return &Static{Desc: "s", Target: map[int64]string{1: "d0"}} }},
		{"single-mount", func() Policy { return &SingleMount{Device: "d0"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testState(4)
			p := tc.mk()
			ctx := context.Background()
			if _, err := p.Propose(ctx, s); err != nil {
				t.Fatal(err)
			}
			blob, err := p.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			restored := tc.mk()
			if err := restored.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
			layout, err := restored.Propose(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if layout != nil {
				t.Errorf("%s re-fired after restore", tc.name)
			}
		})
	}
}

// TestBaselineBlobsFromBeforeTheFold: the state blobs below were written by
// the commit before RandomStatic/RandomDynamic shared one stream form and
// Static/SingleMount one embedded flag (rng.New(9), one Propose over
// testState(6)); checkpoints holding them must still restore — same
// stream position, same fired-already flag.
func TestBaselineBlobsFromBeforeTheFold(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const nextDraw = 699 // Rng.Intn(1000) right after the blob was taken
	ctx := context.Background()
	s := testState(6)

	rs := &RandomStatic{}
	if err := rs.UnmarshalState(unhex("2f7f0301011172616e646f6d537461746963537461746501ff800001020103524e470106000104446f6e6501020000000fff8001f8b54cda58fbbee887010100")); err != nil {
		t.Fatal(err)
	}
	if l, _ := rs.Propose(ctx, s); l != nil {
		t.Error("restored random-static re-fired")
	}
	if got := rs.Rng.Intn(1000); got != nextDraw {
		t.Errorf("random-static next draw = %d, want %d", got, nextDraw)
	}

	rd := &RandomDynamic{}
	if err := rd.UnmarshalState(unhex("28ff810301011272616e646f6d44796e616d6963537461746501ff820001010103524e4701060000000dff8201f8b54cda58fbbee88700")); err != nil {
		t.Fatal(err)
	}
	if got := rd.Rng.Intn(1000); got != nextDraw {
		t.Errorf("random-dynamic next draw = %d, want %d", got, nextDraw)
	}

	oneShot := unhex("23ff830301010c6f6e6553686f74537461746501ff840001010104446f6e65010200000005ff84010100")
	for _, p := range []Policy{&SingleMount{Device: "d0"}, &Static{Target: map[int64]string{1: "d0"}}} {
		if err := p.UnmarshalState(oneShot); err != nil {
			t.Fatal(err)
		}
		if l, _ := p.Propose(ctx, s); l != nil {
			t.Errorf("restored %s re-fired", p.Name())
		}
	}
}

func TestCatalogueNames(t *testing.T) {
	names := Names()
	if len(names) != len(Catalogue()) {
		t.Fatal("Names/Catalogue length mismatch")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate catalogue name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"geomancy", "online-geomancy", "lru", "noop"} {
		if !seen[want] {
			t.Errorf("catalogue missing %q", want)
		}
	}
	if last := names[len(names)-1]; last != "online-geomancy" {
		t.Errorf("catalogue order changed: last = %q", last)
	}
}
