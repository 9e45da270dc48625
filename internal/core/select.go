package core

import "geomancy/internal/policy"

// The select stage is the paper's Action Checker, "the last sanity check
// for file movements in case permissions or availability changes in the
// system" (§V-H), run on each unit's share of the decision: invalid
// destinations never become a file's pick, the highest predicted
// throughput wins, and when every candidate is invalid a random movement
// keeps the availability picture fresh. That fallback and ε-greedy
// exploration both draw from the unit's one stream over the unit's device
// group, so a checkpointed run replays them. Devices are indices into
// e.devices throughout; selectLayout turns the chosen index back into a
// name.

// canPlace reports whether the validator admits a file of size bytes on
// the device at index j.
func (e *Engine) canPlace(j int, size int64) bool {
	return e.valid == nil || e.valid(e.devices[j], size) == nil
}

// greedyPick returns the index of the best destination for a file of size
// bytes that this decision scored on devs (ascending), scores[k] being
// devs[k]'s: among the devices that pass validation, the first with the
// strictly highest maximize-me score (latency negates). -1 when none
// passes.
func (e *Engine) greedyPick(devs []int, scores []float64, size int64) int {
	pick := -1
	var best float64
	for k, j := range devs {
		if !e.canPlace(j, size) {
			continue
		}
		if s := e.betterScore(scores[k]); pick < 0 || s > best {
			pick, best = j, s
		}
	}
	return pick
}

// choose resolves a file's greedy pick into its destination: the pick
// itself, or a uniformly random device of the unit when nothing validated
// (pick < 0). random reports whether the fallback fired; ok is false only
// when there is nowhere at all to go.
func (u *shardUnit) choose(pick int) (dev int, random, ok bool) {
	if pick >= 0 {
		return pick, false, true
	}
	// "In case all storage devices are invalid, a random movement is
	// performed" (§V-H).
	if len(u.devs) == 0 {
		return -1, false, false
	}
	return u.devs[u.rng.Intn(len(u.devs))], true, true
}

// shuffled returns a uniformly shuffled permutation of the unit's devices,
// in the unit's reusable scratch.
func (u *shardUnit) shuffled() []int {
	u.perm = append(u.perm[:0], u.devs...)
	u.rng.Shuffle(len(u.perm), func(a, b int) { u.perm[a], u.perm[b] = u.perm[b], u.perm[a] })
	return u.perm
}

// selectLayout runs the serial ε-greedy selection over unit u's prepared
// tasks' greedy picks, in task order, and writes each file's decision
// record into preds at the file's index in the working set. This is the
// only stage that draws from the unit's stream.
func (e *Engine) selectLayout(u *shardUnit, preds []policy.Prediction) {
	for i := range u.tasks {
		t := &u.tasks[i]
		f := e.prep.files[t.file]
		d := &preds[t.file]
		*d = policy.Prediction{FileID: f.ID, Current: f.Device, Chosen: f.Device}
		dev := -1 // nowhere to go: stay put
		if u.rng.Float64() < e.cfg.Epsilon {
			// Exploration: random movement, still subject to validation.
			// The shuffle always spans the unit's whole group — the choice
			// only depends on which devices validate, never on scores, so
			// pruned and all-device passes explore identically.
			d.Random = true
			for _, j := range u.shuffled() {
				if e.canPlace(j, f.Size) {
					dev = j
					break
				}
			}
		} else if j, random, ok := u.choose(int(t.pick)); ok {
			// The greedy pick, or a random movement when nothing validated.
			dev, d.Random = j, random
		}
		if dev >= 0 {
			d.Chosen = e.devices[dev]
			if k, ok := t.slot(u.short, dev); ok {
				d.Predicted = e.pool.scores[int(t.base)+k]
			}
		}
	}
}
