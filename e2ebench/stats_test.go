package main

import (
	"math"
	"testing"
	"time"

	"dspaddr/internal/obs"
)

func TestHistQuantileInterpolatesInsideTheBucket(t *testing.T) {
	// 100 observations between two scrapes: 50 in (0, 1], 40 in
	// (1, 2], 10 in (2, +Inf].
	before := map[float64]float64{1: 5, 2: 5, math.Inf(1): 5}
	after := map[float64]float64{1: 55, 2: 95, math.Inf(1): 105}
	for _, c := range []struct{ q, want float64 }{{0.5, 1}, {0.7, 1.5}, {0.25, 0.5}} {
		got, n := histQuantile(before, after, c.q)
		if n != 100 || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%.2f = %v over %v, want %v over 100", c.q, got, n, c.want)
		}
	}
	// The top bucket is open: its quantiles read the last finite bound.
	if got, _ := histQuantile(before, after, 0.99); got != 2 {
		t.Errorf("q0.99 = %v, want 2", got)
	}
	if got, n := histQuantile(after, after, 0.5); got != 0 || n != 0 {
		t.Errorf("no observations gave %v over %v", got, n)
	}
}

func TestUnionClipsAndMergesChildren(t *testing.T) {
	parent := &span{Start: 100, End: 200}
	kids := []*span{
		{Start: 90, End: 120},  // clipped to 100-120
		{Start: 110, End: 130}, // overlaps: 100-130
		{Start: 150, End: 160},
		{Start: 190, End: 250}, // clipped to 190-200
		{Start: 300, End: 400}, // outside
	}
	if got := union(parent, kids); got != 30+10+10 {
		t.Fatalf("union = %d, want 50", got)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.99: 5, 0.2: 1, 0.21: 2} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHarvestKeepsJobTraceOutsideCoverage(t *testing.T) {
	tr := &tracer{}
	t0 := time.UnixMicro(1_000_000)
	// The client's submit span, 100 µs long.
	tr.span("http POST /v1/jobs", "", "r1", t0, t0.Add(100*time.Microsecond))
	// The node's handler covers 60 µs of it; the job it started runs
	// after the answer, under the same request id.
	handler := &obs.TraceSnapshot{ID: "r1", Route: "/v1/jobs", StartedAt: t0.Add(20 * time.Microsecond), DurationMicros: 60}
	job := &obs.TraceSnapshot{ID: "r1", Route: "job", StartedAt: t0.Add(90 * time.Microsecond), DurationMicros: 50}
	seen := map[string]bool{}
	tr.harvest("n1", []*obs.TraceSnapshot{job, handler}, seen)
	tr.harvest("n1", []*obs.TraceSnapshot{job, handler}, seen) // a later scrape sees both again
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want the client span, the handler and the job", len(tr.spans))
	}
	a := tr.analyze()
	if a.matched != 1 || math.Abs(a.unattributed-0.4) > 1e-9 {
		t.Fatalf("unattributed = %v over %d requests, want 0.4 over 1", a.unattributed, a.matched)
	}
}
