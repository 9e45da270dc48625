package replaydb

// logChunk is how many access records one chunk of the log holds. 1024
// records of 120 bytes are fifteen 8 KB heap pages exactly, so a chunk
// wastes nothing and the log's slack is never more than one chunk.
const logChunk = 1 << 10

// accessLog is a keep-all database's append-only array of access records,
// held in fixed-size chunks so that growing it never moves what is already
// there. As one slice it was re-allocated at 1.25× its size every time it
// filled: at a million records that is a 150 MB allocation and copy charged
// to whichever append crosses the boundary, which made allocation per
// decision cycle — and the time of the cycle it landed in — depend on where
// a run happened to stop. Positions (the values of stream.pos) are indexes
// into the log exactly as they were into the slice.
type accessLog struct {
	chunks [][]AccessRecord
	n      int
}

// at returns the record at position i, 0 ≤ i < n.
func (l *accessLog) at(i int) *AccessRecord {
	return &l.chunks[i/logChunk][i%logChunk]
}

// push appends rec and returns its position.
func (l *accessLog) push(rec AccessRecord) int {
	pos := l.n
	if pos == len(l.chunks)*logChunk {
		l.chunks = append(l.chunks, make([]AccessRecord, logChunk))
	}
	l.chunks[pos/logChunk][pos%logChunk] = rec
	l.n++
	return pos
}

// tail returns a copy of the records at positions [from, n), oldest first.
func (l *accessLog) tail(from int) []AccessRecord {
	out := make([]AccessRecord, 0, l.n-from)
	for i := from; i < l.n; {
		c := l.chunks[i/logChunk][i%logChunk:]
		if rest := l.n - i; len(c) > rest {
			c = c[:rest]
		}
		out = append(out, c...)
		i += len(c)
	}
	return out
}

// stream is one device's or one file's access records, oldest first. In a
// keep-all database it indexes the log by position (pos). Under a horizon
// it is a ring holding its newest cap(ring) records itself, allocated whole
// when the device or file is first seen: once it is full, ring[head] is the
// oldest record and each push overwrites it.
type stream struct {
	id      int64  // the file ID, on file streams
	lastSeq uint64 // Seq of the newest record

	pos  []int
	ring []AccessRecord
	head int
}

// push appends rec to the ring, dropping the oldest record once it is full.
func (s *stream) push(rec AccessRecord) {
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, rec)
		return
	}
	s.ring[s.head] = rec
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
}

// alloc returns an empty slice with room for the newest n records of s, or
// nil when there are none to copy; s may be nil. A stream holds its records
// in pos or in ring, never both, and exists from its first record on.
func (s *stream) alloc(n int) []AccessRecord {
	if s == nil || n <= 0 {
		return nil
	}
	return make([]AccessRecord, 0, min(n, len(s.pos)+len(s.ring)))
}

// newest returns the ring's newest n records, oldest first, as two
// segments, read in place. ok is false when n is more than a full ring
// holds: records the answer needs were dropped.
func (s *stream) newest(n int) (older, newer []AccessRecord, ok bool) {
	if n > cap(s.ring) && len(s.ring) == cap(s.ring) {
		return nil, nil, false
	}
	older, newer = s.ring[s.head:], s.ring[:s.head]
	if n <= len(newer) {
		return nil, newer[len(newer)-max(n, 0):], true
	}
	return older[max(len(older)+len(newer)-n, 0):], newer, true
}
