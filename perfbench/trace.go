package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"colibri/internal/cserv"
	"colibri/internal/topology"
)

// spanName identifies what a span times. Every span is recorded by the
// benchmark's own code around a call into one module's public functions.
type spanName uint8

const (
	spSend          spanName = iota // root: one packet walked through the data path
	spGwBuild                       // gateway Worker.Build
	spRouterFirst                   // router Worker.Process at the source AS
	spRouterTransit                 // router Worker.Process at a transit AS
	spRouterLast                    // router Worker.Process at the destination AS
	spFwdBurst                      // root: one burst through the sharded data path
	spGwBurst                       // gateway Sharded.BuildBatch
	spRouterBurst                   // router Sharded.ProcessBatch at one AS
	spEERSetup                      // root: Host.RequestEER
	spEERRenew                      // root: Session.Renew
	spDirectory                     // root: Service.SegRsTo
	spTick                          // root: Network.Tick
	spFleetTick                     // root: KeeperFleet.Tick
	spHopSetup                      // one inter-CServ call of an EER setup
	spHopRenew                      // one inter-CServ call of an EER renewal
	spHopBatch                      // one inter-CServ call of a batched renewal wave
	spHopOther                      // any other inter-CServ call (SegR keep-alive)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.send", "gateway.build", "router.first", "router.transit", "router.last",
	"fwd.burst", "gateway.burst", "router.burst",
	"eer.setup", "eer.renew", "cserv.directory", "core.tick", "keeper.tick",
	"cserv.hop.setup", "cserv.hop.renew", "cserv.hop.batch", "cserv.hop.other",
}

// hopSpanFor maps a root span to the name its inter-CServ calls get.
func hopSpanFor(root spanName) spanName {
	switch root {
	case spEERSetup:
		return spHopSetup
	case spEERRenew:
		return spHopRenew
	case spFleetTick:
		return spHopBatch
	}
	return spHopOther
}

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent indexes the kept span buffer (-1 for a root).
type span struct {
	Name   spanName
	Parent int32
	Req    int64
	Start  int64
	End    int64
	Bytes  int32
}

// frame is an open span.
type frame struct {
	name  spanName
	start int64
	child int64 // time covered by direct children
	idx   int32
}

// agg accumulates one span name's durations and self times.
type agg struct {
	n, dur, self, bytes int64
	selfs               []int64
}

// maxSamples caps the self-time samples kept per span name for medians,
// and maxSpans the spans kept for the written trace.
const (
	maxSamples = 1 << 20
	maxSpans   = 1 << 18
)

// tracer records spans in memory from one goroutine: spans nest through an
// explicit stack, so an inter-CServ call made while an EER setup is open
// becomes its child, and hop i+1's call becomes a child of hop i's. Self
// time is a span's duration minus the time its children cover.
type tracer struct {
	epoch time.Time
	req   int64
	spans []span
	stack []frame
	aggs  [numSpanNames]agg
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newRequest starts a new request ID; spans opened from now on carry it.
func (t *tracer) newRequest() { t.req++ }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name spanName) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Parent: parent, Req: t.req})
	}
	t.stack = append(t.stack, frame{name: name, idx: idx, start: t.now()})
}

// end closes the innermost span, recording the bytes it carried.
func (t *tracer) end(bytes int) {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	self := dur - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
	if f.idx >= 0 {
		s := &t.spans[f.idx]
		s.Start, s.End, s.Bytes = f.start, end, int32(bytes)
	}
	a := &t.aggs[f.name]
	a.n++
	a.dur += dur
	a.self += self
	a.bytes += int64(bytes)
	if len(a.selfs) < maxSamples {
		a.selfs = append(a.selfs, self)
	}
}

// rootName returns the outermost open span's name (ok false when none).
func (t *tracer) rootName() (spanName, bool) {
	if len(t.stack) == 0 {
		return 0, false
	}
	return t.stack[0].name, true
}

// perSpan divides a total over a span name's spans (0 when none).
func (t *tracer) perSpan(n spanName, total int64) float64 {
	if t.aggs[n].n == 0 {
		return 0
	}
	return float64(total) / float64(t.aggs[n].n)
}

// selfMean returns the mean self time of a span name in ns.
func (t *tracer) selfMean(n spanName) float64 { return t.perSpan(n, t.aggs[n].self) }

// selfP50 returns the median self time of a span name in ns.
func (t *tracer) selfP50(n spanName) float64 { return quantileNs(t.aggs[n].selfs, 0.5) }

// selfMeanOf returns the mean self time over the spans of several names.
func (t *tracer) selfMeanOf(names ...spanName) float64 {
	var n, self int64
	for _, name := range names {
		n += t.aggs[name].n
		self += t.aggs[name].self
	}
	if n == 0 {
		return 0
	}
	return float64(self) / float64(n)
}

// selfP50Of returns the median self time over the spans of several names.
func (t *tracer) selfP50Of(names ...spanName) float64 {
	var all []int64
	for _, name := range names {
		all = append(all, t.aggs[name].selfs...)
	}
	return quantileNs(all, 0.5)
}

// durMean returns the mean duration of a span name in ns.
func (t *tracer) durMean(n spanName) float64 { return t.perSpan(n, t.aggs[n].dur) }

// bytesMean returns the mean bytes recorded per span of a name.
func (t *tracer) bytesMean(n spanName) float64 { return t.perSpan(n, t.aggs[n].bytes) }

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.End == 0 && s.Start == 0 {
			continue // still open when the run ended
		}
		rec := struct {
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Req    int64  `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Bytes  int32  `json:"bytes,omitempty"`
		}{spanNames[s.Name], s.Parent, s.Req, s.Start, s.End, s.Bytes}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport is the cserv.Transport installed through
// core.Options.WrapTransport in traced runs: while tracing is on it records
// one span per inter-CServ call, with the request and response bytes.
type timedTransport struct {
	inner cserv.Transport
	tr    **tracer
}

func (t *timedTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	tr := *t.tr
	if tr == nil {
		return t.inner.Call(dst, msg)
	}
	root, ok := tr.rootName()
	if !ok {
		root = spHopOther
	}
	tr.begin(hopSpanFor(root))
	resp, err := t.inner.Call(dst, msg)
	tr.end(len(msg) + len(resp))
	return resp, err
}

// wrapTiming returns a core.Options.WrapTransport hook whose transports
// record into *tr whenever it is non-nil.
func wrapTiming(tr **tracer) func(topology.IA, cserv.Transport) cserv.Transport {
	return func(_ topology.IA, inner cserv.Transport) cserv.Transport {
		return &timedTransport{inner: inner, tr: tr}
	}
}

// traceFile names a run's span file.
func traceFile(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed)
}
