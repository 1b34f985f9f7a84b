package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span around each call the benchmark makes
// into a layer. Spans live in memory and are written out as Chrome
// trace-event JSON (open it in https://ui.perfetto.dev) when the run
// ends. A nil *tracer records nothing, so untraced windows pay one nil
// check per call.

// maxSpans caps the spans kept in memory (about 80 bytes each).
const maxSpans = 1 << 20

// Trace-viewer lanes. Spans on one lane nest; concurrent callers get
// lanes of their own.
const (
	laneCaller = iota + 1
	laneInteractive
	laneAnalytics
	laneHandlerInteractive
	laneHandlerAnalytics
	laneProbe
)

var laneNames = map[int]string{
	laneCaller:             "caller",
	laneInteractive:        "interactive client",
	laneAnalytics:          "analytics client",
	laneHandlerInteractive: "handler (interactive)",
	laneHandlerAnalytics:   "handler (analytics)",
	laneProbe:              "layer probes",
}

// span is one call into a layer. req is the id of the root span of the
// request the call belongs to; lane is the trace-viewer track.
type span struct {
	name            string
	id, parent, req int64
	lane            int
	start, end      time.Duration // since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name their parent before
// the parent span ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span. A root span (parent 0) is its own request.
func (t *tracer) add(name string, id, parent, req int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	if req == 0 {
		req = id
	}
	s := span{name: name, id: id, parent: parent, req: req, lane: lane,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed records fn as a root-or-child span and returns its error.
func (t *tracer) timed(name string, parent, req int64, lane int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, t.newID(), parent, req, lane, start, time.Now())
	return err
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of it its children cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	self := t.allSelfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, self[s.id])
		}
	}
	return out
}

// allSelfTimes computes every span's self time. Children are clipped to
// their parent: a span recorded on another goroutine, such as a handler
// whose return is scheduled after its client already has the response,
// can end after its parent.
func (t *tracer) allSelfTimes() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]span, len(t.spans))
	children := make(map[int64][]span)
	for _, s := range t.spans {
		byID[s.id] = s
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(t.spans))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[id] = s.end - s.start - covered
	}
	return self
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves the spans as Chrome trace-event JSON, naming the lanes.
func (t *tracer) write(path string, lanes map[int]string) error {
	self := t.allSelfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			w.WriteString(",")
		}
		first = false
		return enc.Encode(ev)
	}
	for lane, name := range lanes {
		if err := emit(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": name}}); err != nil {
			return err
		}
	}
	for _, s := range t.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		if err := emit(traceEvent{
			Name: s.name, Cat: cat, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req, "self_us": us(self[s.id])},
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, `],"otherData":{"dropped_spans":%d}}`+"\n", t.dropped)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
