package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// Span tracing is deliberately minimal: a Trace is a fixed-capacity
// event arena with an atomic reservation cursor. Ending a span costs
// one atomic add plus a struct store into a pre-allocated slot; there
// is no locking, no channel, no background goroutine. A nil *Trace is
// the disabled state — Start and End on it are a nil check and return,
// so call sites never branch on an "enabled" flag themselves.
//
// Exporting requires quiescence: WriteJSON must not run concurrently
// with Span.End. Every caller in the repo exports only after the
// traced operation has joined its goroutines (job.Run returns,
// storage Finalize/Close waits on part uploads).

// Attr is a span attribute: a string or uint64 value under a key.
type Attr struct {
	Key string
	Str string
	U64 uint64
	num bool
}

// Str returns a string-valued span attribute.
func Str(k, v string) Attr { return Attr{Key: k, Str: v} }

// U64 returns an integer-valued span attribute.
func U64(k string, v uint64) Attr { return Attr{Key: k, U64: v, num: true} }

// Event is one completed span.
type Event struct {
	Name   string
	Cat    string
	TID    uint64 // display lane (Chrome "thread")
	ID     uint64 // span id, unique within the trace, 1-based
	Parent uint64 // parent span id, 0 for roots
	Start  int64  // ns since the trace epoch (monotonic)
	Dur    int64  // ns
	Attrs  []Attr
}

// Trace collects completed spans. Construct with NewTrace; the zero
// value and the nil pointer are both valid disabled traces.
type Trace struct {
	epoch  time.Time // wall + monotonic anchor for every timestamp
	events []Event
	next   atomic.Uint64 // span id allocator
	widx   atomic.Uint64 // reservation cursor into events
	drops  atomic.Uint64 // spans discarded because events was full
	parent atomic.Uint64 // default parent for spans started without one
}

// DefaultTraceCap bounds a trace to a fixed memory footprint
// (~96 B/slot); beyond it spans are counted as dropped, never blocked.
const DefaultTraceCap = 1 << 16

// NewTrace returns an enabled trace holding at most capEvents spans
// (DefaultTraceCap when <= 0).
func NewTrace(capEvents int) *Trace {
	if capEvents <= 0 {
		capEvents = DefaultTraceCap
	}
	return &Trace{epoch: time.Now(), events: make([]Event, capEvents)}
}

// Span is an in-flight span. The zero Span (from a nil Trace) is
// inert: End on it is a no-op, and using it as a parent means "default
// parent".
type Span struct {
	t        *Trace
	name     string
	cat      string
	id       uint64
	parentID uint64
	tid      uint64
	start    int64
}

// Start opens a span on lane tid under the given parent (the zero Span
// defers to the trace's default parent). Safe on a nil Trace.
func (t *Trace) Start(cat, name string, tid uint64, parent Span) Span {
	if t == nil {
		return Span{}
	}
	p := parent.id
	if p == 0 {
		p = t.parent.Load()
	}
	return Span{
		t: t, name: name, cat: cat, tid: tid,
		id: t.next.Add(1), parentID: p,
		start: int64(time.Since(t.epoch)),
	}
}

// End completes the span, recording its duration and attributes.
// Safe on the zero Span.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	end := int64(time.Since(s.t.epoch))
	i := s.t.widx.Add(1) - 1
	if i >= uint64(len(s.t.events)) {
		s.t.drops.Add(1)
		return
	}
	s.t.events[i] = Event{
		Name: s.name, Cat: s.cat, TID: s.tid,
		ID: s.id, Parent: s.parentID,
		Start: s.start, Dur: end - s.start, Attrs: attrs,
	}
}

// ID reports the span's trace-unique id (0 for the zero Span).
func (s Span) ID() uint64 { return s.id }

// SetDefaultParent makes sp the parent of spans subsequently started
// with a zero parent — used to nest storage-layer spans under the
// current worker span without threading a Span through the Backend
// interface. Safe on a nil Trace.
func (t *Trace) SetDefaultParent(sp Span) {
	if t != nil {
		t.parent.Store(sp.id)
	}
}

// Len reports the number of completed spans recorded so far.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	n := t.widx.Load()
	if n > uint64(len(t.events)) {
		n = uint64(len(t.events))
	}
	return int(n)
}

// Dropped reports spans discarded because the trace was full.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.Load()
}

// Events returns the completed spans (a view into the arena; do not
// mutate). Requires quiescence, like WriteJSON.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events[:t.Len()]
}

// active is the process-global trace used by layers that cannot be
// handed one explicitly (the storage backends). Nil when tracing is
// off — which is the common case, so the hot-path probe is one atomic
// pointer load.
var active atomic.Pointer[Trace]

// SetActive installs (or, with nil, clears) the process-global trace.
func SetActive(t *Trace) { active.Store(t) }

// Active returns the process-global trace, nil when tracing is off.
func Active() *Trace { return active.Load() }

// Display lanes. Chrome trace viewers group events into per-"thread"
// rows; spans that can overlap in time must not share a lane or the
// viewer nests them by stack. Generation and upload spans are striped
// across a few lanes each so concurrent chunks stay readable.
const (
	LaneWorker  uint64 = 0       // worker / job / merge lifecycle spans
	lanePEBase  uint64 = 1       // one lane per PE: lanePEBase + pe
	laneGenBase uint64 = 1 << 20 // chunk generation, striped
	laneUpBase  uint64 = 1 << 21 // part uploads, striped
	laneStripes        = 8
	// LaneCheckpoint holds a worker's checkpoint rounds, which run beside
	// the chunk commits on the PE lanes and never overlap each other.
	LaneCheckpoint uint64 = 1 << 22
)

// PELane returns the display lane for a PE's commit-side spans.
func PELane(pe uint64) uint64 { return lanePEBase + pe }

// GenLane returns the display lane for a chunk-generation span.
func GenLane(chunk uint64) uint64 { return laneGenBase + chunk%laneStripes }

// UploadLane returns the display lane for a part-upload span.
func UploadLane(part uint64) uint64 { return laneUpBase + part%laneStripes }

// laneName names a lane for the exported thread metadata.
func laneName(tid uint64) string {
	switch {
	case tid == LaneWorker:
		return "worker"
	case tid == LaneCheckpoint:
		return "checkpoint"
	case tid >= laneUpBase:
		return "upload-" + utoa(tid-laneUpBase)
	case tid >= laneGenBase:
		return "generate-" + utoa(tid-laneGenBase)
	default:
		return "pe " + utoa(tid-lanePEBase)
	}
}

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Chrome trace-event JSON (the "JSON Array Format" with an object
// wrapper): one complete event (ph "X") per span, timestamps in
// microseconds anchored to the trace's wall-clock epoch so traces from
// separate workers of one job merge onto a common timeline, plus
// thread_name metadata so Perfetto labels the lanes.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	// Dur has no omitempty: a complete ("X") event needs an explicit dur
	// even when truncation makes it 0µs.
	Dur  int64          `json:"dur"`
	PID  uint64         `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteJSON exports the trace as Chrome trace-event JSON. Requires
// quiescence (no concurrent Span.End). Safe on a nil Trace (writes an
// empty trace).
func (t *Trace) WriteJSON(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if t != nil {
		base := t.epoch.UnixMicro()
		lanes := make(map[uint64]bool)
		for _, e := range t.Events() {
			if !lanes[e.TID] {
				lanes[e.TID] = true
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", PID: 1, TID: e.TID,
					Args: map[string]any{"name": laneName(e.TID)},
				})
			}
			args := map[string]any{"id": e.ID}
			if e.Parent != 0 {
				args["parent"] = e.Parent
			}
			for _, a := range e.Attrs {
				if a.num {
					args[a.Key] = a.U64
				} else {
					args[a.Key] = a.Str
				}
			}
			// Integer microsecond math, truncating start and end the same
			// way: truncation is monotone, so child spans stay contained in
			// their parents even at sub-microsecond durations — a float ts
			// anchored at UnixMicro (~1.7e15) only resolves ~0.25µs and can
			// invert nesting by rounding.
			ts := base + e.Start/1e3
			end := base + (e.Start+e.Dur)/1e3
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Cat: e.Cat, Ph: "X",
				TS:  ts,
				Dur: end - ts,
				PID: 1, TID: e.TID, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
