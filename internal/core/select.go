package core

import "geomancy/internal/policy"

// The select stage is the paper's Action Checker, "the last sanity check
// for file movements in case permissions or availability changes in the
// system" (§V-H), run on the engine's own decision: invalid destinations
// never become a file's pick, the highest predicted throughput wins, and
// when every candidate is invalid a random movement keeps the
// availability picture fresh. That fallback and ε-greedy exploration both
// draw from the engine's one stream over its one device list, so a
// checkpointed run replays them. Devices are indices into e.devices
// throughout; selectLayout turns the chosen index back into a name.

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
// itself, or a uniformly random device when nothing validated (pick < 0).
// random reports whether the fallback fired; ok is false only when there
// is nowhere at all to go.
func (e *Engine) choose(pick int) (dev int, random, ok bool) {
	if pick >= 0 {
		return pick, false, true
	}
	// "In case all storage devices are invalid, a random movement is
	// performed" (§V-H).
	if len(e.devices) == 0 {
		return -1, false, false
	}
	return e.rng.Intn(len(e.devices)), true, true
}

// shuffledDevices returns a uniformly shuffled permutation of every device
// index, in the engine's reusable scratch.
func (e *Engine) shuffledDevices() []int {
	if len(e.perm) != len(e.devices) {
		e.perm = make([]int, len(e.devices))
	}
	for j := range e.perm {
		e.perm[j] = j
	}
	e.rng.Shuffle(len(e.perm), func(a, b int) { e.perm[a], e.perm[b] = e.perm[b], e.perm[a] })
	return e.perm
}

// selectLayout runs the serial ε-greedy selection over the prepared files'
// greedy picks and returns one decision record per file, in file order.
// This is the only stage that draws from e.rng.
func (e *Engine) selectLayout() []policy.Prediction {
	files, tasks := e.prep.files, e.prep.tasks
	preds := make([]policy.Prediction, len(files))
	for i, f := range files {
		d := &preds[i]
		*d = policy.Prediction{FileID: f.ID, Current: f.Device, Chosen: f.Device}
		dev := -1 // nowhere to go: stay put
		if e.rng.Float64() < e.cfg.Epsilon {
			// Exploration: random movement, still subject to validation.
			// The shuffle always spans the full device width — the choice
			// only depends on which devices validate, never on scores, so
			// pruned and all-device passes explore identically.
			d.Random = true
			for _, j := range e.shuffledDevices() {
				if e.canPlace(j, f.Size) {
					dev = j
					break
				}
			}
		} else if j, random, ok := e.choose(int(tasks[i].pick)); ok {
			// The greedy pick, or a random movement when nothing validated.
			dev, d.Random = j, random
		}
		if dev >= 0 {
			d.Chosen = e.devices[dev]
			if k, ok := tasks[i].slot(e.prep.short, dev); ok {
				d.Predicted = e.pool.scores[e.scoreOff+tasks[i].base+k]
			}
		}
	}
	return preds
}
