package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name (an index into the
// tracer's names, so the span buffer holds no pointers for the garbage
// collector to scan), start and end (ns since the tracer started), the
// index of the span that caused it (-1 for a request root) and the
// request it belongs to.
type span struct {
	name       uint16
	start, end int64
	parent     int32
	req        int64
}

// tracer records spans in memory from one goroutine. When off, begin and
// end do nothing, so a replay can run with and without recording to
// measure what recording costs.
type tracer struct {
	names []string
	ids   map[string]uint16
	on    bool
	t0    time.Time
	req   int64
	spans []span
	stack []int32
	flip  bool // which side of an overhead round runs first
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ids: map[string]uint16{}} }

// request starts a new request root span.
func (t *tracer) request(name string) int32 {
	t.req++
	return t.begin(name)
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	n, ok := t.ids[name]
	if !ok {
		n = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = n
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, start: int64(time.Since(t.t0)), parent: parent, req: t.req})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if !t.on || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// abort closes every open span, after a call failed mid-request.
func (t *tracer) abort() {
	for len(t.stack) > 0 {
		t.end(t.stack[len(t.stack)-1])
	}
}

// layerTime is one span name's totals: how often it ran, its summed
// duration and its summed self time (duration minus the part of its
// interval covered by child spans).
type layerTime struct {
	calls int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates the recorded spans by name.
func (t *tracer) selfTimes() map[string]*layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		name := t.names[s.name]
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		lt.calls++
		lt.total += time.Duration(s.end - s.start)
		lt.self += time.Duration(s.end - s.start - child[i])
	}
	return out
}

// selfUs is the mean self time of the named spans per unit, in µs.
func selfUs(lt map[string]*layerTime, units int, names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		if l := lt[n]; l != nil {
			d += l.self
		}
	}
	return ratio(float64(d)/float64(time.Microsecond), float64(units))
}

// meanUs is the mean duration of one span name's calls, in µs.
func meanUs(lt map[string]*layerTime, name string) float64 {
	l := lt[name]
	if l == nil {
		return 0
	}
	return ratio(float64(l.total)/float64(time.Microsecond), float64(l.calls))
}

// write saves the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type record struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Req    int64  `json:"req"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(record{t.names[s.name], s.start, s.end, s.parent, s.req}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// overheadRound runs the same replay pass once with span recording off
// and once with it on, alternating between calls which goes first so that
// neither side always meets the caches the other warmed. It adds each
// pass's wall time to off and on; (on-off)/off over many rounds is what
// recording costs. Summing before dividing keeps single slow passes (a
// garbage collection, say) from dominating as a mean of ratios would.
func overheadRound(t *tracer, pass func() error, off, on *time.Duration) error {
	t.flip = !t.flip
	for _, rec := range []bool{t.flip, !t.flip} {
		t.on = rec
		start := time.Now()
		if err := pass(); err != nil {
			return err
		}
		if rec {
			*on += time.Since(start)
		} else {
			*off += time.Since(start)
		}
	}
	t.on = true
	return nil
}
