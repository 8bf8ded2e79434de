package cluster

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// sortBreaker is the reference for the breaker's trip rule: the same
// state machine, but the latency trip sorts the window's durations
// and compares the element at the quantile index with the threshold.
// The breaker under test counts slow outcomes instead; the two must
// agree on every decision.
type sortBreaker struct {
	opts      BreakerOptions
	state     BreakerState
	openedAt  time.Time
	lastProbe time.Time
	successes int
	durs      []time.Duration
	fails     []bool
	n         int
}

func (b *sortBreaker) allow(now time.Time) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.opts.OpenFor {
			return false
		}
		b.state, b.successes, b.lastProbe = BreakerHalfOpen, 0, now
		return true
	default:
		if now.Sub(b.lastProbe) < b.opts.HalfOpenEvery {
			return false
		}
		b.lastProbe = now
		return true
	}
}

func (b *sortBreaker) record(ok bool, dur time.Duration, now time.Time) {
	switch b.state {
	case BreakerOpen:
		return
	case BreakerHalfOpen:
		if !ok || (b.opts.LatencyThreshold >= 0 && dur > b.opts.LatencyThreshold) {
			b.state, b.openedAt = BreakerOpen, now
			return
		}
		if b.successes++; b.successes >= b.opts.CloseAfter {
			b.state, b.n = BreakerClosed, 0
		}
		return
	}
	idx := b.n % b.opts.Window
	b.durs[idx], b.fails[idx] = dur, !ok
	b.n++
	samples := min(b.n, b.opts.Window)
	if samples < b.opts.MinSamples {
		return
	}
	failed := 0
	for _, f := range b.fails[:samples] {
		if f {
			failed++
		}
	}
	trip := float64(failed)/float64(samples) >= b.opts.ErrRate
	if !trip && b.opts.LatencyThreshold >= 0 {
		sorted := append([]time.Duration(nil), b.durs[:samples]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		qi := min(int(float64(samples)*b.opts.LatencyQuantile), samples-1)
		trip = sorted[qi] >= b.opts.LatencyThreshold
	}
	if trip {
		b.state, b.openedAt = BreakerOpen, now
	}
}

// TestBreakerMatchesSortRule replays seeded random outcome streams
// through the breaker and the sort-based reference over a grid of
// window, min-samples, quantile, error-rate and threshold settings —
// a negative threshold included — and requires the same admission
// verdict and state after every step.
func TestBreakerMatchesSortRule(t *testing.T) {
	const steps = 300
	for _, window := range []int{1, 3, 8, 32} {
		for _, minSamples := range []int{1, 4, 8} {
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
				for _, errRate := range []float64{0.2, 0.5, 1} {
					for _, threshold := range []time.Duration{-1, 50 * time.Millisecond, 250 * time.Millisecond} {
						opts := BreakerOptions{
							Window: window, MinSamples: minSamples, ErrRate: errRate,
							LatencyQuantile: q, LatencyThreshold: threshold,
							OpenFor: time.Second, HalfOpenEvery: 100 * time.Millisecond, CloseAfter: 2,
						}
						name := fmt.Sprintf("w%d/min%d/q%g/err%g/thr%v", window, minSamples, q, errRate, threshold)
						for seed := uint64(1); seed <= 3; seed++ {
							diffBreaker(t, name, opts, seed, steps)
						}
					}
				}
			}
		}
	}
}

func diffBreaker(t *testing.T, name string, opts BreakerOptions, seed uint64, steps int) {
	t.Helper()
	var got, want []BreakerState
	b := newBreaker(opts, func(to BreakerState) { got = append(got, to) })
	ref := &sortBreaker{opts: opts.withDefaults()}
	ref.durs = make([]time.Duration, ref.opts.Window)
	ref.fails = make([]bool, ref.opts.Window)
	track := func(before BreakerState) {
		if ref.state != before {
			want = append(want, ref.state)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	// Durations straddle both thresholds, hitting each exactly too.
	durs := []time.Duration{time.Millisecond, 49 * time.Millisecond, 50 * time.Millisecond,
		51 * time.Millisecond, 249 * time.Millisecond, 250 * time.Millisecond, 400 * time.Millisecond}
	now := time.Unix(0, 0)
	for i := 0; i < steps; i++ {
		now = now.Add(time.Duration(rng.IntN(300)) * time.Millisecond)
		before := ref.state
		if a, r := b.allow(now), ref.allow(now); a != r {
			t.Fatalf("%s seed %d step %d: allow %v, reference %v", name, seed, i, a, r)
		}
		track(before)
		ok, dur := rng.IntN(4) != 0, durs[rng.IntN(len(durs))]
		before = ref.state
		b.record(ok, dur, now)
		ref.record(ok, dur, now)
		track(before)
		if st, _, _ := b.snapshot(); st != ref.state {
			t.Fatalf("%s seed %d step %d: state %v after record(%v, %v), reference %v",
				name, seed, i, st, ok, dur, ref.state)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s seed %d: transitions %v, reference %v", name, seed, got, want)
	}
}

// TestBreakerRecordZeroAlloc pins the closed-state record path at zero
// allocations with the latency trip armed and the window full.
func TestBreakerRecordZeroAlloc(t *testing.T) {
	b := newBreaker(BreakerOptions{}, nil)
	now := time.Now()
	for i := 0; i < DefaultBreakerWindow; i++ {
		b.record(true, time.Millisecond, now)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.record(true, time.Millisecond, now) }); allocs != 0 {
		t.Fatalf("closed-state record allocates %v/op", allocs)
	}
}
