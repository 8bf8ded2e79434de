package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// GaugeVec is a gauge family partitioned by label values — the
// settable sibling of CounterVec, for state that moves both ways
// (e.g. per-node up/down in a cluster gateway). Children are created
// on first Set; the steady-state path is one RLock and a map probe.
type GaugeVec struct {
	name       string
	help       string
	labelNames []string

	mu       sync.RWMutex
	children map[string]*atomic.Int64
}

// NewGaugeVec builds an empty gauge family.
func NewGaugeVec(name, help string, labelNames []string) *GaugeVec {
	return &GaugeVec{
		name:       name,
		help:       help,
		labelNames: labelNames,
		children:   make(map[string]*atomic.Int64),
	}
}

// Set stores v as the child's current value. Nil-safe.
func (g *GaugeVec) Set(v int64, labelValues ...string) {
	if g == nil {
		return
	}
	key := renderLabels(g.labelNames, labelValues)
	g.mu.RLock()
	c := g.children[key]
	g.mu.RUnlock()
	if c == nil {
		g.mu.Lock()
		if c = g.children[key]; c == nil {
			c = new(atomic.Int64)
			g.children[key] = c
		}
		g.mu.Unlock()
	}
	c.Store(v)
}

// Expose renders the family in sorted label order.
func (g *GaugeVec) Expose(w io.Writer) {
	if g == nil {
		return
	}
	WriteHeader(w, g.name, g.help, "gauge")
	g.mu.RLock()
	keys := make([]string, 0, len(g.children))
	for k := range g.children {
		keys = append(keys, k)
	}
	g.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		g.mu.RLock()
		c := g.children[k]
		g.mu.RUnlock()
		fmt.Fprintf(w, "%s{%s} %d\n", g.name, k, c.Load())
	}
}
