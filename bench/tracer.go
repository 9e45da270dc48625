package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per interface boundary the traced pass decorates. The
// root of every facade-level Run call is spanRun, renamed spanCycle when
// the call contained a decision.
const (
	spanRun         = "core.run"
	spanCycle       = "core.cycle"
	spanWorkloadRun = "workload.run"
	spanRecord      = "core.record"
	spanAppend      = "replaydb.append"
	spanObserve     = "agents.observe"
	spanFlush       = "agents.flush"
	spanPolicy      = "policy.propose"
	spanRetrain     = "core.retrain"
	spanUpdate      = "core.update"
	spanPropose     = "core.propose"
	spanQuery       = "replaydb.query"
	spanRemoteQuery = "agents.query"
	spanApplyLayout = "workload.apply_layout"
	spanPushLayout  = "agents.push_layout"
)

// spanNames lists every span in report order; a span's id is its index.
var spanNames = [...]string{
	spanRun, spanCycle, spanWorkloadRun, spanRecord, spanAppend, spanObserve,
	spanFlush, spanPolicy, spanRetrain, spanUpdate, spanPropose, spanQuery,
	spanRemoteQuery, spanApplyLayout, spanPushLayout,
}

func spanID(name string) uint8 {
	for i, n := range spanNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("bench: unknown span " + name)
}

const (
	noParent  = int32(-1)
	spanChunk = 1 << 16
)

// span is one recorded interval. Times are nanoseconds since the tracer
// was created; parent indexes the nested-span list; tick is the ordinal of
// the facade-level Run call the span belongs to (the request identifier).
type span struct {
	name       uint8
	parent     int32
	tick       int32
	start, end int64
}

// spanList is an append-only list in fixed-size chunks, so recording never
// copies what is already recorded.
type spanList struct {
	chunks [][]span
	n      int
}

func (l *spanList) add(s span) int32 {
	if l.n == len(l.chunks)*spanChunk {
		l.chunks = append(l.chunks, make([]span, spanChunk))
	}
	i := l.n
	l.n++
	l.chunks[i/spanChunk][i%spanChunk] = s
	return int32(i)
}

func (l *spanList) at(i int32) *span { return &l.chunks[int(i)/spanChunk][int(i)%spanChunk] }

// tracer records spans in memory. Nested spans (begin/end) belong to the
// one driver goroutine and are recorded without locking — two of them wrap
// every access. Leaf spans (beginLeaf/endLeaf) may come from the engine's
// worker goroutines (parallel candidate gathering, concurrent shards);
// they attach to whatever nested span the driver has open and never have
// children. Both lists are in start order.
type tracer struct {
	epoch  time.Time
	nested spanList
	stack  []int32
	tick   int32

	// read by leaf recorders on other goroutines
	on  atomic.Bool
	top atomic.Int32 // innermost open nested span, noParent if none
	cur atomic.Int32 // current tick

	mu     sync.Mutex
	leaves spanList
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.top.Store(noParent)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a nested span on the driver goroutine; -1 when not recording.
func (t *tracer) begin(name uint8) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	parent := noParent
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := t.nested.add(span{name: name, parent: parent, tick: t.tick, start: t.now()})
	t.stack = append(t.stack, i)
	t.top.Store(i)
	return i
}

// end closes the driver's innermost span, which must be i.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.nested.at(i).end = t.now()
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != i {
		panic("bench: span closed out of order")
	}
	t.stack = t.stack[:n-1]
	if n > 1 {
		t.top.Store(t.stack[n-2])
	} else {
		t.top.Store(noParent)
	}
}

// rename retitles an open nested span (the root is renamed once a Run call
// turns out to contain a decision).
func (t *tracer) rename(i int32, name uint8) {
	if i >= 0 {
		t.nested.at(i).name = name
	}
}

// beginLeaf opens a childless span from any goroutine; close it with
// endLeaf.
func (t *tracer) beginLeaf(name uint8) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leaves.add(span{name: name, parent: t.top.Load(), tick: t.cur.Load(), start: t.now()})
}

func (t *tracer) endLeaf(i int32) {
	if i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.leaves.at(i).end = now
	t.mu.Unlock()
}

// nextTick starts the next facade-level Run call.
func (t *tracer) nextTick() {
	if t != nil {
		t.tick++
		t.cur.Store(t.tick)
	}
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// spanTotals is the aggregate of one span name over the window.
type spanTotals struct {
	calls int64
	total int64 // ns, sum of durations
	self  int64 // ns, wall time attributed to the span itself
}

// aggregate computes per-name totals and self times, and the summed wall
// time of the root spans. Wall time is attributed exactly once: a span
// contributes to its parent the part of its interval no earlier sibling
// already covers (concurrent leaf spans overlap), and its self time is
// that contribution minus what its own children contribute to it. With
// spans visited in start order a running "covered until" mark per parent
// yields the exact union, so self times sum to the root spans' wall time.
func (t *tracer) aggregate() (map[string]*spanTotals, int64) {
	covered := make([]int64, t.nested.n)
	until := make([]int64, t.nested.n)
	out := make(map[string]*spanTotals)
	var rootWall int64
	visit := func(s *span) {
		contrib := s.end - s.start
		if s.parent == noParent {
			rootWall += contrib
		} else {
			p := t.nested.at(s.parent)
			lo, hi := s.start, s.end
			if hi > p.end {
				hi = p.end
			}
			if u := until[s.parent]; u > lo {
				lo = u
			}
			contrib = 0
			if hi > lo {
				contrib = hi - lo
				covered[s.parent] += contrib
				until[s.parent] = hi
			}
		}
		agg := out[spanNames[s.name]]
		if agg == nil {
			agg = &spanTotals{}
			out[spanNames[s.name]] = agg
		}
		agg.calls++
		agg.total += s.end - s.start
		agg.self += contrib
	}
	// Merge the two start-ordered lists.
	ni, li := 0, 0
	for ni < t.nested.n || li < t.leaves.n {
		if li >= t.leaves.n || (ni < t.nested.n && t.nested.at(int32(ni)).start <= t.leaves.at(int32(li)).start) {
			visit(t.nested.at(int32(ni)))
			ni++
		} else {
			visit(t.leaves.at(int32(li)))
			li++
		}
	}
	// A parent's covered sum is complete only after its children, which
	// start later, have been visited.
	for i := 0; i < t.nested.n; i++ {
		out[spanNames[t.nested.at(int32(i)).name]].self -= covered[i]
	}
	return out, rootWall
}

// writeJSON dumps every span (name, start/end ns, parent index into the
// nested spans, tick) for offline inspection: nested spans first, then the
// leaf spans.
func (t *tracer) writeJSON(path string) error {
	type jsonSpan struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Tick    int32  `json:"tick"`
		Leaf    bool   `json:"leaf,omitempty"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	first := true
	dump := func(l *spanList, leaf bool) error {
		for i := 0; i < l.n; i++ {
			s := l.at(int32(i))
			if !first {
				w.WriteString(",")
			}
			first = false
			if err := enc.Encode(jsonSpan{spanNames[s.name], s.start, s.end, s.parent, s.tick, leaf}); err != nil {
				return err
			}
		}
		return nil
	}
	err = dump(&t.nested, false)
	if err == nil {
		err = dump(&t.leaves, true)
	}
	w.WriteString("]\n")
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
