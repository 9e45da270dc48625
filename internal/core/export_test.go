package core

// Cadence returns the intra-burst gap statistics (the all-gap EWMA before
// release filtering).
func (g *GapPredictor) Cadence(fileID int64) (mean, dev float64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, found := g.stats[fileID]
	if !found || s.n < 1 {
		return 0, 0, false
	}
	return s.mean, s.dev, true
}

// LastAccess returns the most recent observed access time of the file.
func (g *GapPredictor) LastAccess(fileID int64) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.stats[fileID]
	if !ok {
		return 0, false
	}
	return s.lastAccess, true
}
