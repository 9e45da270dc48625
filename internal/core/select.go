package core

// The select stage is the paper's Action Checker, "the last sanity check
// for file movements in case permissions or availability changes in the
// system" (§V-H), run on the engine's own decision: invalid destinations
// leave the candidate list, the highest predicted throughput wins, and
// when every candidate is invalid a random movement keeps the
// availability picture fresh. That fallback and ε-greedy exploration both
// draw from the engine's one stream over its one device list, so a
// checkpointed run replays them.

// candidate pairs a storage device with a maximize-me score for placing
// a file there.
type candidate struct {
	device string
	score  float64
}

// filterValid returns the candidates that pass validation for a file of
// size bytes, preserving order.
func (e *Engine) filterValid(cands []candidate, size int64) []candidate {
	out := make([]candidate, 0, len(cands))
	for _, c := range cands {
		if e.valid != nil && e.valid(c.device, size) != nil {
			continue
		}
		out = append(out, c)
	}
	return out
}

// choose picks the destination for a file from the candidates that passed
// filterValid: the one with the highest score, or a uniformly random
// device when none passed. random reports whether the fallback fired; ok
// is false only when there is nowhere at all to go.
func (e *Engine) choose(passing []candidate) (device string, random, ok bool) {
	if len(passing) > 0 {
		best := passing[0]
		for _, c := range passing[1:] {
			if c.score > best.score {
				best = c
			}
		}
		return best.device, false, true
	}
	// "In case all storage devices are invalid, a random movement is
	// performed" (§V-H).
	if len(e.devices) == 0 {
		return "", false, false
	}
	return e.devices[e.rng.Intn(len(e.devices))], true, true
}

// selectLayout runs the serial ε-greedy selection over prepared decision
// material. This is the only stage that draws from e.rng.
func (e *Engine) selectLayout(files []FileMeta, pre []scored) (map[int64]string, []Decision, error) {
	layout := make(map[int64]string, len(files))
	decisions := make([]Decision, 0, len(files))
	for i := range files {
		f := files[i]
		d := pre[i].d
		if e.rng.Float64() < e.cfg.Epsilon {
			// Exploration: random movement, still subject to validation.
			// The shuffle always spans the full device width — the choice
			// only depends on which devices validate, never on scores, so
			// pruned and all-device passes explore identically.
			d.Random = true
			shuffled := append([]string(nil), e.devices...)
			e.rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			d.Chosen = f.Device
			for _, dev := range shuffled {
				if e.valid == nil || e.valid(dev, f.Size) == nil {
					d.Chosen = dev
					break
				}
			}
		} else if dev, random, ok := e.choose(pre[i].passing); ok {
			// Greedy over the precomputed valid set, or a random movement
			// when nothing validates.
			d.Chosen, d.Random = dev, random
		} else {
			d.Chosen = f.Device // nowhere to go: stay put
		}
		layout[f.ID] = d.Chosen
		decisions = append(decisions, d)
	}
	return layout, decisions, nil
}
