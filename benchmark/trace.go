package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// layer identifies where a span was recorded. The simulated workloads
// record spans at the engine's plug points (clock, scheduler, allocator,
// observer); everything a clock callback does that is not one of those
// children is the disk service loop itself.
type layer int

const (
	layerRun        layer = iota // VirtualClock.Run: self time is pops and cancelled-event drain
	layerCallback                // one clock callback: self time is the disk service loop
	layerSchedule                // Clock.Schedule*/After*
	layerSchedNext               // Scheduler.Next
	layerSchedAdmit              // Scheduler.Admit / Remove
	layerAllocSize               // Allocator.Size
	layerAllocPlan               // Allocator.PlanSize
	layerAllocAdmit              // Allocator.Admit
	layerObserver                // any Observer callback
	numLayers
)

var layerNames = [numLayers]string{
	"engine.clock.run", "engine.disk.callback", "engine.clock.schedule",
	"engine.scheduler.next", "engine.scheduler.admit_remove",
	"engine.allocator.size", "engine.allocator.plansize", "engine.allocator.admit",
	"engine.observer.callback",
}

// span is one recorded interval. Parent is the ID of the span that
// caused it (0 for a root); Req is the stream or session the work was
// for (0 when it serves no single request). Times are nanoseconds since
// the tracer's base.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAgg aggregates every span of one layer over a whole pass.
type layerAgg struct {
	Count    int64 `json:"count"`
	Children int64 `json:"children"` // direct child spans, of any layer
	Total    int64 `json:"total_ns"`
	Self     int64 `json:"self_ns"`
	Max      int64 `json:"max_ns"`
}

type frame struct {
	layer layer
	id    int
	req   int
	start int64
	child int64 // time covered by already-closed child spans
}

// maxRawSpans bounds the raw spans a simulated pass keeps (roughly the
// first 50,000 dispatches); aggregates still cover the whole pass.
const maxRawSpans = 400_000

// tracer records nested spans on one goroutine. A simulation is
// single-threaded, so child spans never overlap and a span's self time
// is its duration minus the sum of its children, kept incrementally on
// the stack. selfTimes computes the same quantity from raw spans for
// the cases where children may overlap.
type tracer struct {
	base   time.Time
	stack  []frame
	agg    [numLayers]layerAgg
	spans  []span
	nextID int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stack: make([]frame, 0, 16), spans: make([]span, 0, maxRawSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(l layer, req int) {
	t.nextID++
	t.stack = append(t.stack, frame{layer: l, id: t.nextID, req: req, start: t.now()})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - f.start
	a := &t.agg[f.layer]
	a.Count++
	a.Total += dur
	a.Self += dur - f.child
	if dur > a.Max {
		a.Max = dur
	}
	parent := 0
	if n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
		t.agg[t.stack[n-1].layer].Children++
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Name: layerNames[f.layer], Req: f.req, Start: f.start, End: end})
	}
	return dur
}

// spanOverhead measures what recording one span costs: inner is what an
// empty span reads, outer what it adds to its parent's self time beyond
// that. It times spans the way most of a pass records them, after the
// raw-span sample has filled.
func spanOverhead() (inner, outer float64) {
	const n = 1_000_000
	t := &tracer{base: time.Now()}
	t.begin(layerRun, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.begin(layerCallback, 0)
		t.end()
	}
	wall := time.Since(t0)
	t.end()
	inner = float64(t.agg[layerCallback].Total) / n
	return inner, float64(wall)/n - inner
}

// selfNS is the layers' summed self time with the recording cost taken
// out: each span's own reading overhead, and what each child span added
// around its measured interval.
func (t *tracer) selfNS(inner, outer float64, ls ...layer) float64 {
	var ns float64
	for _, l := range ls {
		a := t.agg[l]
		ns += max(0, float64(a.Self)-float64(a.Count)*inner-float64(a.Children)*outer)
	}
	return ns
}

// aggregates names the per-layer aggregates for the trace file.
func (t *tracer) aggregates() map[string]layerAgg {
	out := make(map[string]layerAgg, numLayers)
	for l, a := range t.agg {
		out[layerNames[l]] = a
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children are clipped
// to the parent and overlapping children count once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceFile is what -out's sibling trace.json holds: per workload, the
// whole-pass aggregates and the bounded raw sample.
type traceFile struct {
	Workload   string              `json:"workload"`
	Aggregates map[string]layerAgg `json:"aggregates,omitempty"`
	Spans      []span              `json:"spans"`
}

func writeTraceFile(path string, traces []traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
