// Tests for the histogram's recent window: Quantile estimates at
// bucket resolution, generation turnover, the +Inf overflow, nil and
// idle histograms, and concurrent Observe/Quantile under -race.

package obs

import (
	"sync"
	"testing"
	"time"
)

// inBucket fails unless d lies in the bucket (lo, hi].
func inBucket(t *testing.T, what string, d, lo, hi time.Duration) {
	t.Helper()
	if d <= lo || d > hi {
		t.Errorf("%s = %v, want in (%v, %v]", what, d, lo, hi)
	}
}

func TestHistogramQuantileIdleAndNil(t *testing.T) {
	if got := NewHistogram("x", "x", nil).Quantile(0.5); got != 0 {
		t.Errorf("idle Quantile = %v, want 0", got)
	}
	var h *Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v, want 0", got)
	}
}

func TestHistogramQuantileOneSample(t *testing.T) {
	h := NewHistogram("x", "x", nil)
	h.Observe(42 * time.Microsecond)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		inBucket(t, "one-sample quantile", h.Quantile(q), 25*time.Microsecond, 50*time.Microsecond)
	}
}

// TestHistogramQuantileInterpolates pins the estimate inside a bucket:
// linear in the rank, with 0 as the first bucket's lower edge.
func TestHistogramQuantileInterpolates(t *testing.T) {
	h := NewHistogram("x", "x", []float64{0.001, 0.002})
	for i := 0; i < 50; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 40; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second) // +Inf
	}
	for q, want := range map[float64]time.Duration{
		0.25: 500 * time.Microsecond,
		0.5:  time.Millisecond,
		0.7:  1500 * time.Microsecond,
		0.99: 2 * time.Millisecond, // in +Inf: the top finite bound
	} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram("x", "x", nil)
	h.Observe(time.Minute)
	if got := h.Quantile(0.5); got != 10*time.Second {
		t.Errorf("overflow Quantile = %v, want the top bound 10s", got)
	}
}

// TestHistogramQuantileTwoTurnovers fills the window with fast
// observations, then turns it over twice with slow ones: no stale
// generation may drag the estimates down, while the cumulative count
// keeps every observation.
func TestHistogramQuantileTwoTurnovers(t *testing.T) {
	h := NewHistogram("x", "x", nil)
	for i := 0; i < 2*windowGen; i++ {
		h.Observe(10 * time.Microsecond)
	}
	inBucket(t, "pre-turnover p99", h.Quantile(0.99), 0, 25*time.Microsecond)
	for i := 0; i < 2*windowGen; i++ {
		h.Observe(time.Millisecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		inBucket(t, "post-turnover quantile", h.Quantile(q), 500*time.Microsecond, time.Millisecond)
	}
	if h.Count() != 4*windowGen {
		t.Errorf("Count = %d, want %d", h.Count(), 4*windowGen)
	}
}

// TestHistogramQuantilePartialTurnover opens a new generation with 100
// slow observations over a full window of fast ones: p50 stays in the
// old bucket, p99 lands in the new one (100 of 2148 is ≈4.7% > 1%).
func TestHistogramQuantilePartialTurnover(t *testing.T) {
	h := NewHistogram("x", "x", nil)
	for i := 0; i < 2*windowGen; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	inBucket(t, "p50", h.Quantile(0.5), 0, 25*time.Microsecond)
	inBucket(t, "p99", h.Quantile(0.99), 500*time.Microsecond, time.Millisecond)
}

func TestHistogramVecChildQuantile(t *testing.T) {
	v := NewHistogramVec("x", "x", []string{"route"}, nil)
	v.Observe(42*time.Microsecond, "/a")
	inBucket(t, "child quantile", v.child([]string{"/a"}).Quantile(0.5), 25*time.Microsecond, 50*time.Microsecond)
}

// TestHistogramQuantileConcurrent races Observe across generation
// flips against Quantile readers; run it under -race. Estimates must
// stay within the bucket range and the cumulative count exact.
func TestHistogramQuantileConcurrent(t *testing.T) {
	h := NewHistogram("x", "x", nil)
	const writers, each = 4, 3 * windowGen
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i%100) * 10 * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if d := h.Quantile(0.99); d < 0 || d > 10*time.Second {
				t.Errorf("Quantile mid-race = %v", d)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != writers*each {
		t.Fatalf("Count = %d, want %d", h.Count(), writers*each)
	}
	inBucket(t, "settled p50", h.Quantile(0.5), 250*time.Microsecond, time.Millisecond)
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench_seconds", "bench.", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 3 * time.Millisecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}
