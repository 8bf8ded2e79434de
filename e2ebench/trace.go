// Tracing for the traced run. Spans come from the benchmark's own
// code — around each HTTP call and each in-process call into a layer's
// public functions — plus the rcaserve spans harvested from
// /debug/requests (the nodes run with -trace-min -1, so every request
// is retained). Spans stay in memory and are written as one file when
// the run ends. A nil *tracer records nothing, which is the untraced
// path.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"dspaddr/internal/obs"
)

// span is one recorded interval. Times are wall-clock microseconds,
// so client and server spans from the same host share one timeline.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Request string `json:"requestId"`
	Start   int64  `json:"startMicros"`
	End     int64  `json:"endMicros"`
	Source  string `json:"source"` // "bench" or a node name
}

type tracer struct {
	mu    sync.Mutex
	spans []span
	seq   int
}

// span records a benchmark span whose id is the request id (one HTTP
// call per request id).
func (t *tracer) span(name, parent, reqID string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: reqID, Parent: parent, Request: reqID,
		Start: start.UnixMicro(), End: end.UnixMicro(), Source: "bench"})
	t.mu.Unlock()
}

// layer records an in-process layer call; each gets a fresh id.
func (t *tracer) layer(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	id := fmt.Sprintf("l%d", t.seq)
	t.spans = append(t.spans, span{Name: name, ID: id, Request: id,
		Start: start.UnixMicro(), End: end.UnixMicro(), Source: "bench"})
}

// jobSpan names the harvested trace of an async job's run. rcaserve
// records it under the submitting request's id (route "job"), so it
// hangs under the client's submit span; it runs after the submit is
// answered, so it covers none of that span's time.
const jobSpan = "rcaserve.job"

// harvest adds one node's retained request traces: the handler (or
// job run) as a span under the client's HTTP span of the same request
// id, and the node's phase spans under it. A trace is known by node,
// route and id, since a submit's handler and its job share the id;
// traces already seen are skipped.
func (t *tracer) harvest(node string, snaps []*obs.TraceSnapshot, seen map[string]bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range snaps {
		root := node + ":" + s.Route + ":" + s.ID
		if seen[root] {
			continue
		}
		seen[root] = true
		name := "rcaserve.handler " + s.Route
		if s.Route == "job" {
			name = jobSpan
		}
		start := s.StartedAt.UnixMicro()
		t.spans = append(t.spans, span{Name: name, ID: root, Parent: s.ID,
			Request: s.ID, Start: start, End: start + s.DurationMicros, Source: node})
		for i, sp := range s.Spans {
			t.spans = append(t.spans, span{Name: "rcaserve." + sp.Name, ID: fmt.Sprintf("%s/%d", root, i),
				Parent: root, Request: s.ID, Start: start + sp.StartMicros,
				End: start + sp.StartMicros + sp.DurMicros, Source: node})
		}
	}
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	name          string
	count         int
	total, self   int64 // microseconds
	selfShareOfE2 float64
}

// analysis is the span tree's summary: self time per span name, and
// the share of end-to-end client time that no layer span covers.
type analysis struct {
	rows []selfRow
	// unattributed is, over client HTTP spans whose server handler
	// trace was harvested, the time outside every handler span divided
	// by their total duration.
	unattributed float64
	matched      int
	// queueWaits are the engine.queue span durations (µs).
	queueWaits []float64
}

// analyze computes self times: a span's duration minus the union of
// its children's intervals, clipped to the span.
func (t *tracer) analyze() analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[string][]*span{}
	byID := map[string]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		byID[s.ID] = s
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != "" && byID[s.Parent] != nil {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfRow{}
	var a analysis
	var e2e, uncovered int64
	for i := range t.spans {
		s := &t.spans[i]
		dur := s.End - s.Start
		covered := union(s, children[s.ID])
		r := agg[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			agg[s.Name] = r
		}
		r.count++
		r.total += dur
		r.self += dur - covered
		if s.Name == "rcaserve.engine.queue" {
			a.queueWaits = append(a.queueWaits, float64(dur))
		}
		if s.Source == "bench" && isHTTP(s.Name) {
			var server []*span
			for _, k := range children[s.ID] {
				if k.Source != "bench" && k.Name != jobSpan {
					server = append(server, k)
				}
			}
			if len(server) > 0 {
				a.matched++
				e2e += dur
				uncovered += dur - union(s, server)
			}
		}
	}
	if e2e > 0 {
		a.unattributed = float64(uncovered) / float64(e2e)
	}
	for _, r := range agg {
		if e2e > 0 {
			r.selfShareOfE2 = float64(r.self) / float64(e2e)
		}
		a.rows = append(a.rows, *r)
	}
	sort.Slice(a.rows, func(i, j int) bool { return a.rows[i].self > a.rows[j].self })
	return a
}

func isHTTP(name string) bool { return len(name) > 5 && name[:5] == "http " }

// union is the length of the union of the children's intervals,
// clipped to the parent.
func union(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// printTable writes the self-time table.
func (a analysis) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-44s %8s %12s %12s %8s\n", "span", "count", "total_us", "self_us", "self/e2e")
	for _, r := range a.rows {
		fmt.Fprintf(w, "%-44s %8d %12d %12d %8.3f\n", r.name, r.count, r.total, r.self, r.selfShareOfE2)
	}
	fmt.Fprintf(w, "trace.unattributed_ratio %.4f over %d client requests with a harvested server trace\n",
		a.unattributed, a.matched)
}
