// Tests for the stats collector: counters keep counting every solve
// while the percentiles read the solve histogram's recent window, and
// percentile edge cases with zero and one observations. The window's
// own turnover behaviour is tested in internal/obs.

package engine

import (
	"testing"
	"time"
)

// TestStatsCountEverySolve turns the solve window over twice: the job
// counters must count every observation, and the percentiles must
// come from the newest window only — all inside the 1ms bucket, not
// dragged down by the first generation of fast solves.
func TestStatsCountEverySolve(t *testing.T) {
	c := newCollector()
	const n = 8192
	for i := 0; i < n; i++ {
		c.solved(10 * time.Microsecond)
	}
	for i := 0; i < n; i++ {
		c.solved(1000 * time.Microsecond)
	}
	s := c.snapshot()
	if s.Jobs != 2*n || s.CacheMisses != 2*n {
		t.Fatalf("counters lost observations: %+v", s)
	}
	for _, p := range []float64{s.SolveP50Micros, s.SolveP90Micros, s.SolveP99Micros} {
		if p <= 500 || p > 1000 {
			t.Fatalf("percentiles %+v, want all in the (500µs, 1ms] bucket", s)
		}
	}
}

// TestPercentilesNoSamples checks an idle collector reports zero
// percentiles rather than NaN or garbage.
func TestPercentilesNoSamples(t *testing.T) {
	c := newCollector()
	s := c.snapshot()
	if s.SolveP50Micros != 0 || s.SolveP90Micros != 0 || s.SolveP99Micros != 0 {
		t.Fatalf("idle percentiles non-zero: %+v", s)
	}
	if s.HitRate != 0 {
		t.Fatalf("idle hit rate %g", s.HitRate)
	}
}

// TestPercentilesOneSample checks a single observation pins every
// percentile inside its own bucket, (25µs, 50µs].
func TestPercentilesOneSample(t *testing.T) {
	c := newCollector()
	c.solved(42 * time.Microsecond)
	s := c.snapshot()
	for _, p := range []float64{s.SolveP50Micros, s.SolveP90Micros, s.SolveP99Micros} {
		if p <= 25 || p > 50 {
			t.Fatalf("single-sample percentiles %+v, want all in (25, 50]", s)
		}
	}
	if s.Jobs != 1 || s.CacheMisses != 1 {
		t.Fatalf("counters off: %+v", s)
	}
}
