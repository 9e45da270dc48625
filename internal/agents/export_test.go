package agents

// Pending returns the number of buffered, unshipped reports.
func (m *Monitor) Pending() int {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return len(m.batch)
}

// Applied returns the total number of file movements executed.
func (c *Control) Applied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}
