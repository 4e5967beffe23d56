package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Spans are recorded from the benchmark's side of each
// call into the library (module.Func names), never from inside it.
//
// Recording must not disturb what it measures: spans hold no pointers
// (names are interned), so the garbage collector never scans them, and
// they are stored in fixed-size chunks, so a record never copies the spans
// before it.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	next   uint64
	names  []string
	nameID map[string]uint16
	chunks [][]spanRec
}

// spanChunk is the number of spans per storage chunk.
const spanChunk = 1 << 14

// spanRec is one recorded span in memory.
type spanRec struct {
	trace, id, parent uint64
	start, end        int64
	name              uint16
}

// span is one timed call as written out. Spans of one batch, request,
// table or function share Trace; Parent is 0 for a trace's root. Self is
// the duration minus the part of it covered by child spans.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameID: make(map[string]uint16)}
}

// now returns nanoseconds since the tracer started, on the monotonic clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newID reserves a span ID, so a parent can be recorded after its children.
func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span; id 0 allocates one. It returns the ID.
func (t *tracer) record(id, trace, parent uint64, name string, start, end int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	n, ok := t.nameID[name]
	if !ok {
		n = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = n
	}
	if len(t.chunks) == 0 || len(t.chunks[len(t.chunks)-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]spanRec, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, spanRec{trace: trace, id: id, parent: parent, start: start, end: end, name: n})
	return id
}

// finish returns every span with its self time, ordered by start time.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var spans []span
	for _, c := range t.chunks {
		for _, s := range c {
			spans = append(spans, span{Trace: s.trace, ID: s.id, Parent: s.parent,
				Name: t.names[s.name], Start: s.start, End: s.end})
		}
	}
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, spans, children[s.ID])
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	return spans
}

// covered returns how much of [lo, hi) the given child spans cover,
// counting overlapping children once.
func covered(lo, hi int64, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfByName sums self time per span name (the trace summary printed with
// a traced run).
func selfByName(spans []span) map[string]int64 {
	m := make(map[string]int64)
	for _, s := range spans {
		m[s.Name] += s.Self
	}
	return m
}
