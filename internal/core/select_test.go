package core

import (
	"fmt"
	"testing"

	"geomancy/internal/rng"
)

// selector builds the minimum of an engine the select stage reads: the
// decision stream, the device universe, and the validator.
func selector(seed int64, devices []string, valid func(string, int64) error) *Engine {
	return &Engine{rng: rng.New(seed), devices: devices, valid: valid}
}

func TestActionCheckerChoosesBest(t *testing.T) {
	e := selector(1, []string{"a", "b", "c"}, nil)
	cands := []candidate{{"a", 1}, {"b", 5}, {"c", 3}}
	dev, random, ok := e.choose(e.filterValid(cands, 0))
	if !ok || random || dev != "b" {
		t.Errorf("choose = %q random=%v ok=%v, want b/false/true", dev, random, ok)
	}
}

func TestActionCheckerFiltersInvalid(t *testing.T) {
	e := selector(2, []string{"a", "b"}, func(dev string, size int64) error {
		if dev == "b" {
			return fmt.Errorf("b is read-only")
		}
		return nil
	})
	cands := []candidate{{"a", 1}, {"b", 99}}
	dev, random, ok := e.choose(e.filterValid(cands, 0))
	if !ok || random || dev != "a" {
		t.Errorf("choose = %q random=%v, want a/false", dev, random)
	}
	got := e.filterValid(cands, 0)
	if len(got) != 1 || got[0].device != "a" {
		t.Errorf("filterValid = %v", got)
	}
}

func TestActionCheckerRandomFallback(t *testing.T) {
	e := selector(3, []string{"x", "y", "z"}, func(string, int64) error { return fmt.Errorf("nope") })
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		dev, random, ok := e.choose(e.filterValid([]candidate{{"x", 1}}, 0))
		if !ok || !random {
			t.Fatalf("fallback not taken: %q %v %v", dev, random, ok)
		}
		seen[dev] = true
	}
	if len(seen) < 2 {
		t.Errorf("random fallback not exploring: saw %v", seen)
	}
}

func TestActionCheckerNowhereToGo(t *testing.T) {
	e := selector(4, nil, nil)
	if _, _, ok := e.choose(nil); ok {
		t.Error("no candidates and no devices should report !ok")
	}
}
