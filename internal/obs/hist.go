package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency bounds in seconds: 25µs → 10s,
// roughly logarithmic. The low end matters here — a warm cache hit is
// ~1.4µs and a full branch-and-bound solve tens of µs to ms, so the
// classic Prometheus 5ms floor would fold the entire engine into one
// bucket.
var DefBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// windowGen is the size of one generation of a histogram's recent
// window; Quantile reads two, the newest windowGen–2·windowGen.
const windowGen = 2048

// Histogram is a fixed-bucket latency histogram rendered in native
// Prometheus exposition (`_bucket`/`_sum`/`_count`). Buckets are
// plain atomic counters incremented non-cumulatively on the hot path;
// the cumulative `le` view is computed at scrape time. Observe on a
// nil histogram is a no-op, so optional hooks cost one nil check.
//
// Besides the cumulative counts, every histogram keeps a recent
// window — two generations of per-bucket counters — that Quantile
// estimates from. The window takes no lock: an Observe racing the
// clear that opens a new generation may drop out of the window, never
// out of the cumulative exposition.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // ascending upper bounds, seconds
	cells  []cell    // len(bounds)+1; last is the +Inf overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// cell is one bucket: its cumulative count beside its count in each
// window generation, so an Observe touches one cache line per bucket.
type cell struct {
	total atomic.Uint64
	gen   [2]atomic.Uint64
}

// NewHistogram builds a histogram; nil bounds selects DefBuckets.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		cells:  make([]cell, len(bounds)+1),
	}
}

// Observe records one duration. Nil-safe, allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.cells[i].total.Add(1)
	n := h.count.Add(1) - 1
	h.sum.Add(int64(d))
	g := n / windowGen % 2
	if n%windowGen == 0 {
		// This observation opens the generation: drop what it held
		// two generations ago.
		for j := range h.cells {
			h.cells[j].gen[g].Store(0)
		}
	}
	h.cells[i].gen[g].Add(1)
}

// Quantile estimates the q-quantile (q in [0,1]) of the recent window.
// The estimate interpolates linearly inside the bucket the rank falls
// in, taking 0 as the first bucket's lower edge; a rank in the +Inf
// overflow reads the top finite bound. An empty window or a nil
// histogram gives 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.cells {
		total += h.cells[i].recent()
	}
	if total == 0 {
		return 0
	}
	rank, below, lower := q*float64(total), 0.0, 0.0
	for i, upper := range h.bounds {
		c := float64(h.cells[i].recent())
		if c > 0 && below+c >= rank {
			return time.Duration((lower + (upper-lower)*(rank-below)/c) * float64(time.Second))
		}
		below += c
		lower = upper
	}
	return time.Duration(lower * float64(time.Second)) // rank in +Inf
}

// recent is the cell's count over both window generations.
func (c *cell) recent() uint64 { return c.gen[0].Load() + c.gen[1].Load() }

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Expose renders the full exposition block for the histogram.
func (h *Histogram) Expose(w io.Writer) {
	if h == nil {
		return
	}
	WriteHeader(w, h.name, h.help, "histogram")
	h.writeSamples(w, "")
}

// writeSamples renders the sample lines with an optional pre-rendered
// label prefix (`route="x",status="200"`), shared with HistogramVec.
func (h *Histogram) writeSamples(w io.Writer, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.cells[i].total.Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			h.name, labels, sep, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += h.cells[len(h.bounds)].total.Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", h.name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", h.name, formatSeconds(h.sum.Load()))
		fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", h.name, labels, formatSeconds(h.sum.Load()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", h.name, labels, h.count.Load())
	}
}

func formatSeconds(nanos int64) string {
	return strconv.FormatFloat(float64(nanos)/1e9, 'g', -1, 64)
}

// HistogramVec is a histogram family partitioned by label values
// (e.g. route+status). Children are created on first observation;
// the steady-state path is one RLock and a map probe.
type HistogramVec struct {
	name       string
	help       string
	labelNames []string
	bounds     []float64

	mu       sync.RWMutex
	children map[string]*Histogram // key: rendered label pairs
}

// NewHistogramVec builds an empty family; nil bounds = DefBuckets.
func NewHistogramVec(name, help string, labelNames []string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{
		name:       name,
		help:       help,
		labelNames: labelNames,
		bounds:     bounds,
		children:   make(map[string]*Histogram),
	}
}

// Observe records d against the child for the given label values.
func (v *HistogramVec) Observe(d time.Duration, labelValues ...string) {
	if v == nil {
		return
	}
	v.child(labelValues).Observe(d)
}

func (v *HistogramVec) child(labelValues []string) *Histogram {
	key := renderLabels(v.labelNames, labelValues)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h == nil {
		h = NewHistogram(v.name, "", v.bounds)
		v.children[key] = h
	}
	return h
}

// Expose renders the family: one HELP/TYPE header, then every child
// in sorted label order for a stable exposition.
func (v *HistogramVec) Expose(w io.Writer) {
	if v == nil {
		return
	}
	WriteHeader(w, v.name, v.help, "histogram")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		h := v.children[k]
		v.mu.RUnlock()
		h.writeSamples(w, k)
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	name       string
	help       string
	labelNames []string

	mu       sync.RWMutex
	children map[string]*atomic.Uint64
}

// NewCounterVec builds an empty counter family.
func NewCounterVec(name, help string, labelNames []string) *CounterVec {
	return &CounterVec{
		name:       name,
		help:       help,
		labelNames: labelNames,
		children:   make(map[string]*atomic.Uint64),
	}
}

// Add increments the child for the given label values by n.
func (v *CounterVec) Add(n uint64, labelValues ...string) {
	if v == nil {
		return
	}
	key := renderLabels(v.labelNames, labelValues)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c == nil {
		v.mu.Lock()
		if c = v.children[key]; c == nil {
			c = new(atomic.Uint64)
			v.children[key] = c
		}
		v.mu.Unlock()
	}
	c.Add(n)
}

// Expose renders the family in sorted label order.
func (v *CounterVec) Expose(w io.Writer) {
	if v == nil {
		return
	}
	WriteHeader(w, v.name, v.help, "counter")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, k, c.Load())
	}
}

// WriteHeader writes a family's `# HELP` and `# TYPE` lines — the one
// header path every exposition in the repo goes through. Newlines in
// help are flattened to spaces; an empty typ (a family whose source
// never declared one) writes no TYPE line.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	if typ != "" {
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
}

// WriteSingle writes a family holding one unlabeled sample: its header
// and the value.
func WriteSingle(w io.Writer, name, help, typ string, v float64) {
	WriteHeader(w, name, help, typ)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// LabelString renders a label set as it follows a sample name:
// `{a="x",b="y"}` with names sorted and values escaped, or "" when
// the set is empty.
func LabelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	values := make([]string, len(names))
	for i, k := range names {
		values[i] = labels[k]
	}
	return "{" + renderLabels(names, values) + "}"
}

// renderLabels joins label names and values into the exposition form
// `a="x",b="y"`. Missing values render as "".
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		if i < len(values) {
			b.WriteString(escapeLabel(values[i]))
		}
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
