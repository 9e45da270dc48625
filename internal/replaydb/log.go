package replaydb

// logChunk is how many access records one chunk of the log holds. 1024
// records of 120 bytes are fifteen 8 KB heap pages exactly, so a chunk
// wastes nothing and the log's slack is never more than one chunk.
const logChunk = 1 << 10

// accessLog is the database's append-only array of access records, held in
// fixed-size chunks so that growing it never moves what is already there.
// As one slice it was re-allocated at 1.25× its size every time it filled:
// at a million records that is a 150 MB allocation and copy charged to
// whichever append crosses the boundary, which made allocation per
// decision cycle — and the time of the cycle it landed in — depend on
// where a run happened to stop. Positions (the values of DB.byDevice and
// DB.byFile) are indexes into the log exactly as they were into the slice.
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
