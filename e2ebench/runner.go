// One run of one workload: set-up (repeated, for a steady setup_s),
// the two fixed-rate open-loop phases with async probe chunks before,
// between and after them, and the goodput search, with tracing off; or, with tracing on, the in-process
// layer timings, an untraced and a traced phase at the high rate, the
// gateway hop pairs and the span analysis.

package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dspaddr/internal/cluster"
	"dspaddr/internal/engine"
	"dspaddr/internal/obs"
)

const (
	// setups is how many times a run sets the fleet up; setup_s is
	// their median.
	setups = 9
	// probeChunks is the number of pieces the async probe is cut into,
	// spread over the run: latency on an idle fleet follows the host's
	// load, which changes within a run.
	probeChunks = 3
	// hopPairs is the number of interleaved direct/gateway pairs.
	hopPairs = 400
	// healthzPings is the number of /healthz round trips timed.
	healthzPings = 400
	// harvestEvery spaces /debug/requests scrapes in the traced phase.
	harvestEvery = 200 * time.Millisecond
	// goodputStep is one step of the goodput search.
	goodputStep = time.Second
	// staircaseFirst and staircaseFinest are the goodput search's first
	// and smallest ratio between adjacent rates.
	staircaseFirst  = 1.4
	staircaseFinest = 1.03
)

// fleet is one set-up of the servers a workload needs.
type fleet struct {
	ps      procSet
	nodes   []*proc
	gateway *proc
	entry   string // where the load goes
	ctl     *http.Client
}

// startFleet launches the workload's servers and waits until each
// answers /healthz.
func startFleet(ctx context.Context, bins *binaries, w *workloadDef, dir string, traced bool) (*fleet, error) {
	f := &fleet{ctl: &http.Client{Timeout: 10 * time.Second}}
	nNodes := 1
	if w.gateway {
		nNodes = 2
	}
	var members []string
	for i := 0; i < nNodes; i++ {
		var args []string
		name := "rcaserve"
		if w.gateway {
			name = fmt.Sprintf("n%d", i+1)
			wal, err := os.MkdirTemp(dir, "wal-"+name+"-")
			if err != nil {
				return nil, err
			}
			args = append(args, "-node-id", name, "-wal-dir", wal)
		}
		if traced {
			args = append(args, "-trace-min", "-1ns")
		}
		p, err := f.ps.start(name, "node", bins.rcaserve, args, dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, p)
		members = append(members, name+"="+p.url)
	}
	f.entry = f.nodes[0].url
	if w.gateway {
		p, err := f.ps.start("rcagate", "gateway", bins.rcagate, []string{"-nodes", strings.Join(members, ",")}, dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gateway, f.entry = p, p.url
	}
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, p := range f.ps.list() {
		if err := waitHealthy(hctx, f.ctl, p); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) stop() { f.ps.stop() }

func (f *fleet) names() []string {
	out := make([]string, len(f.nodes))
	for i, p := range f.nodes {
		out[i] = p.name
	}
	return out
}

func (f *fleet) snapshot(ctx context.Context) (snapshot, error) {
	var s snapshot
	for _, p := range f.nodes {
		var ns nodeStats
		if err := getJSON(ctx, f.ctl, p.url+"/v1/stats", &ns); err != nil {
			return s, err
		}
		m, err := getMetrics(ctx, f.ctl, p.url)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, ns)
		s.metrics = append(s.metrics, m)
	}
	if f.gateway != nil {
		m, err := getMetrics(ctx, f.ctl, f.gateway.url)
		if err != nil {
			return s, err
		}
		s.gateway = m
	}
	u, err := f.ps.usage()
	s.usage = u
	return s, err
}

// run is the state of one workload run.
type run struct {
	w    *workloadDef
	plan plan
	bins *binaries
	dir  string // per-run temp dir
	in   inputs
	log  io.Writer

	attempted, failed int
	wrong             []string
}

// tally counts measured results; wrong answers are kept for the report.
func (r *run) tally(rs []result) {
	for _, x := range rs {
		r.attempted++
		if x.out != outOK {
			r.failed++
		}
		r.noteWrong(x)
	}
}

// noteWrong records a wrong answer, measured or not.
func (r *run) noteWrong(x result) {
	if x.out == outWrong {
		if len(r.wrong) < 20 {
			r.wrong = append(r.wrong, fmt.Sprintf("%s %s: %s", x.kind, x.traceID, x.msg))
		} else if len(r.wrong) == 20 {
			r.wrong = append(r.wrong, "...")
		}
	}
}

// setUp starts a fleet and sends the warm-up stream closed-loop. It
// returns the load generator bound to the fleet's entry point, its
// connections already open.
func (r *run) setUp(ctx context.Context, traced bool) (*fleet, *loadgen, error) {
	f, err := startFleet(ctx, r.bins, r.w, r.dir, traced)
	if err != nil {
		return nil, nil, err
	}
	lg := &loadgen{base: f.entry, hc: newHTTPClient(), ops: r.in.warm, prefix: "warm"}
	for _, x := range lg.burst(ctx, len(r.in.warm)) {
		r.noteWrong(x)
		if x.out == outFailed {
			f.stop()
			return nil, nil, fmt.Errorf("warm-up %s failed: %s", x.kind, x.msg)
		}
	}
	if err := ctx.Err(); err != nil {
		f.stop()
		return nil, nil, err
	}
	lg.ops, lg.cursor, lg.prefix = r.in.ops, 0, "m"
	return f, lg, nil
}

// syncLatencies returns the sync ops' latencies from due time, in ms.
func syncLatencies(rs []result) []float64 {
	var out []float64
	for _, x := range rs {
		if x.kind.synchronous() {
			out = append(out, ms(x.latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stepPasses reports whether a goodput step held the workload's
// limit: the sync p99 (a failed op counts as missing the limit) stays
// within it, and the generator's lateness grew by no more than a tenth
// of the step from the first to the last quarter of the step (a
// backlog growing that fast means the offered rate is over capacity by
// about 15% or more).
func stepPasses(rs []result, limit time.Duration) bool {
	var lat []float64
	for _, x := range rs {
		if !x.kind.synchronous() {
			continue
		}
		v := ms(x.latency())
		if x.out != outOK {
			v = math.Inf(1)
		}
		lat = append(lat, v)
	}
	if len(lat) == 0 || quantile(lat, 0.99) > ms(limit) {
		return false
	}
	q := len(rs) / 4
	if q == 0 {
		return true
	}
	late := func(part []result) float64 {
		var l []float64
		for _, x := range part {
			l = append(l, ms(x.sent-x.due))
		}
		return quantile(l, 0.5)
	}
	return late(rs[len(rs)-q:]) <= late(rs[:q])+ms(goodputStep)/10
}

// goodput estimates the highest rate whose step passes with an
// adaptive up-down staircase: from the high rate it moves one level up
// after a passing step and one down after a failing one, starting with
// levels staircaseFirst apart and halving the (logarithmic) level
// spacing at each reversal down to staircaseFinest. It reports the
// geometric mean of the rates run from the second reversal on (from
// the first, or the last rate, when there were fewer). The staircase
// settles around the rate that passes half the time, so one noisy step
// moves the estimate by a fraction of a level instead of ending the
// search.
func (r *run) goodput(ctx context.Context, lg *loadgen, budget time.Duration) (rate float64, steps []result) {
	cur, spacing := r.w.high, math.Log(staircaseFirst)
	var rates []float64
	var lastPass bool
	reversals := 0
	deadline := time.Now().Add(budget)
	for time.Until(deadline) >= goodputStep && ctx.Err() == nil {
		rs := lg.phaseAt(ctx, cur, goodputStep)
		steps = append(steps, rs...)
		pass := stepPasses(rs, r.w.limit)
		fmt.Fprintf(r.log, "goodput step %.0f op/s: pass=%v p99 %.1f ms\n", cur, pass, quantile(syncLatencies(rs), 0.99))
		if len(rates) > 0 && pass != lastPass {
			reversals++
			spacing = max(spacing/2, math.Log(staircaseFinest))
			if reversals <= 2 {
				rates = rates[:0] // average from this reversal on
			}
		}
		rates = append(rates, cur)
		lastPass = pass
		if pass {
			cur *= math.Exp(spacing)
		} else {
			cur /= math.Exp(spacing)
		}
	}
	if len(rates) == 0 {
		return 0, steps
	}
	if reversals == 0 {
		return rates[len(rates)-1], steps
	}
	var logSum float64
	for _, x := range rates {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(rates))), steps
}

// measure is the untraced run: it returns the end-to-end metrics.
func (r *run) measure(ctx context.Context) ([]metric, error) {
	var setupTimes []float64
	var f *fleet
	var lg *loadgen
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		f, lg, err = r.setUp(ctx, false)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			f.stop()
		}
	}
	defer f.stop()

	// The async probe: paced single-job submits to an otherwise idle
	// fleet, each polled back to back until terminal, in chunks before,
	// between and after the fixed-rate phases.
	plg := &loadgen{base: f.entry, hc: lg.hc, ops: r.in.probe, prefix: "probe", pollAtOnce: true}
	var async []result
	probe := func() {
		gap := time.Duration(float64(time.Second) / r.w.probeRate)
		async = append(async, plg.phase(ctx, len(r.in.probe)/probeChunks, gap)...)
	}
	// CPU per op is taken over the two fixed-rate phases only: the
	// goodput search runs at rates that differ from run to run.
	var cpu time.Duration
	fixedPhase := func(rate float64, dur time.Duration) ([]result, error) {
		before, err := f.ps.usage()
		if err != nil {
			return nil, err
		}
		rs := lg.phaseAt(ctx, rate, dur)
		after, err := f.ps.usage()
		if err != nil {
			return nil, err
		}
		for role, c := range after.cpu {
			cpu += c - before.cpu[role]
		}
		return rs, nil
	}
	probe()
	low, err := fixedPhase(r.w.low, r.plan.low)
	if err != nil {
		return nil, err
	}
	probe()
	high, err := fixedPhase(r.w.high, r.plan.high)
	if err != nil {
		return nil, err
	}
	probe()
	// The peak RSS is read before the goodput search, like CPU per op:
	// the backlog of its over-capacity steps differs from run to run.
	peak, err := f.ps.usage()
	if err != nil {
		return nil, err
	}
	// The goodput search spends about half its steps over capacity,
	// where the node sheds sync requests by design: its refusals are
	// not failures of the program, so only its wrong answers count.
	good, steps := r.goodput(ctx, lg, r.plan.search)
	for _, x := range steps {
		r.noteWrong(x)
	}
	fixed := append(append([]result(nil), low...), high...)
	r.tally(fixed)
	r.tally(async)
	var done []float64
	for _, x := range async {
		if (x.kind == kAsync || x.kind == kBigN) && x.out == outOK {
			done = append(done, ms(x.terminal-x.sent))
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	completed := 0
	for _, x := range fixed {
		if x.out != outFailed {
			completed++
		}
	}
	lowLat, highLat := syncLatencies(low), syncLatencies(high)
	// The p99s and goodput are info metrics: printed and stored, not in
	// the result line (see METRICS.md for why).
	return []metric{
		{name: "setup_s", unit: "s", value: quantile(setupTimes, 0.5), n: len(setupTimes)},
		{name: "lat_p50_ms.low", unit: "ms", value: quantile(lowLat, 0.5), n: len(lowLat)},
		{name: "lat_p99_ms.low", unit: "ms", value: quantile(lowLat, 0.99), n: len(lowLat), info: true},
		{name: "lat_p50_ms.high", unit: "ms", value: quantile(highLat, 0.5), n: len(highLat)},
		{name: "lat_p99_ms.high", unit: "ms", value: quantile(highLat, 0.99), n: len(highLat), info: true},
		{name: "goodput_rps", unit: "1/s", value: good, n: len(steps), info: true},
		{name: "async_done_p50_ms", unit: "ms", value: quantile(done, 0.5), n: len(done)},
		{name: "async_done_p99_ms", unit: "ms", value: quantile(done, 0.99), n: len(done), info: true},
		{name: "success_ratio", unit: "ratio", value: 1 - ratio(float64(r.failed), float64(r.attempted)), n: r.attempted},
		{name: "server_cpu_us_per_op", unit: "us", value: ratio(float64(cpu.Microseconds()), float64(completed)), n: completed},
		{name: "rss_peak_mb", unit: "MB", value: float64(peak.hwmKiB) / 1024, n: len(f.ps.list())},
	}, nil
}

// traced is the traced run: it returns the per-layer metrics and
// writes the span file to tracePath.
func (r *run) traced(ctx context.Context, tracePath string) ([]metric, error) {
	tr := &tracer{}
	out, err := timeLayers(ctx, r.in.layerSpecs, tr)
	if err != nil {
		return nil, err
	}
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, n: n})
	}

	// Untraced phase at the high rate: the client-side and scraped
	// layer numbers, and the baseline for the tracing overhead.
	f, lg, err := r.setUp(ctx, false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	var rtt []float64
	for i := 0; i < healthzPings; i++ {
		t0 := time.Now()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, f.nodes[0].url+"/healthz", nil)
		resp, err := lg.hc.Do(req)
		if err != nil {
			return nil, err
		}
		drain(resp)
		rtt = append(rtt, us(time.Since(t0)))
	}
	add("transport.healthz_rtt_us_p50", "us", quantile(rtt, 0.5), len(rtt))

	before, err := f.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	base := lg.phaseAt(ctx, r.w.high, r.plan.high)
	after, err := f.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	r.tally(base)
	var late, self, bytes, queue, runUs []float64
	completed := 0
	for _, x := range base {
		late = append(late, ms(x.sent-x.due))
		if x.out != outFailed {
			completed++
		}
		if x.kind.synchronous() && x.out == outOK {
			self = append(self, us(x.end-x.sent)-float64(x.serverUs))
			bytes = append(bytes, float64(x.respBytes))
		}
		if x.kind != kSync && x.kind != kBatch && x.out == outOK && x.terminal > 0 {
			queue = append(queue, float64(x.jobQueueUs))
			runUs = append(runUs, float64(x.runUs))
		}
	}
	add("loadgen.late_ms_p99", "ms", quantile(late, 0.99), len(late))
	add("rcaserve.self_us_p50", "us", quantile(self, 0.5), len(self))
	add("rcaserve.self_us_p99", "us", quantile(self, 0.99), len(self))
	add("rcaserve.resp_bytes_per_op", "B", mean(bytes), len(bytes))
	cpu := func(role string) float64 {
		return ratio(float64((after.usage.cpu[role] - before.usage.cpu[role]).Microseconds()), float64(completed))
	}
	add("rcaserve.cpu_us_per_op", "us", cpu("node"), completed)
	add("rcagate.cpu_us_per_op", "us", cpu("gateway"), completed)

	var jobs, hits, dedup, sheds, rejected, fsyncs uint64
	walBefore, walAfter := map[float64]float64{}, map[float64]float64{}
	for i := range after.nodes {
		a, b := after.nodes[i], before.nodes[i]
		jobs += a.Jobs - b.Jobs
		hits += a.CacheHits - b.CacheHits
		dedup += a.Deduped - b.Deduped
		sheds += a.Sheds - b.Sheds
		rejected += a.AsyncJobs.Rejected - b.AsyncJobs.Rejected
		if a.WAL != nil && b.WAL != nil {
			fsyncs += a.WAL.Fsyncs - b.WAL.Fsyncs
		}
		for le, v := range buckets(before.metrics[i], "rcaserve_wal_append_duration_seconds") {
			walBefore[le] += v
		}
		for le, v := range buckets(after.metrics[i], "rcaserve_wal_append_duration_seconds") {
			walAfter[le] += v
		}
	}
	add("engine.hit_ratio", "ratio", ratio(float64(hits), float64(jobs)), int(jobs))
	add("engine.dedup_ratio", "ratio", ratio(float64(dedup), float64(jobs)), int(jobs))
	add("engine.sheds", "count", float64(sheds), int(jobs))
	add("jobs.queue_wait_us_p99", "us", quantile(queue, 0.99), len(queue))
	add("jobs.run_us_p50", "us", quantile(runUs, 0.5), len(runUs))
	add("jobs.rejected", "count", float64(rejected), len(queue))
	walP99, walN := histQuantile(walBefore, walAfter, 0.99)
	add("wal.append_us_p99", "us", walP99*1e6, int(walN))
	add("wal.fsyncs_per_s", "1/s", float64(fsyncs)/r.plan.high.Seconds(), int(fsyncs))
	gw := func(name string, labels map[string]string) float64 {
		if f.gateway == nil {
			return 0
		}
		return counter(after.gateway, name, labels) - counter(before.gateway, name, labels)
	}
	add("cluster.retries", "count", gw("rcagate_forward_retries_total", nil), len(base))
	add("cluster.hedges", "count", gw("rcagate_hedges_total", nil), len(base))
	add("cluster.breaker_opens", "count", gw("rcagate_breaker_transitions_total", map[string]string{"to": "open"}), len(base))

	hop, err := r.hopPairs(ctx, f, lg.hc, tr)
	if err != nil {
		return nil, err
	}
	add("cluster.hop_us_p50", "us", quantile(hop, 0.5), len(hop))
	add("cluster.hop_us_p99", "us", quantile(hop, 0.99), len(hop))
	f.stop()

	// Traced phase: the same rate with every node retaining every
	// request trace and the client recording spans.
	f, lg, err = r.setUp(ctx, true)
	if err != nil {
		return nil, err
	}
	lg.tr = tr
	seen := map[string]bool{}
	// Fetch about twice what arrives between harvests: the traces of
	// 16-job batches are large, and encoding the whole ring every
	// harvest would load the node more than the traffic does.
	limit := min(obs.DefaultRingSize, int(2*r.w.high*harvestEvery.Seconds())+16)
	harvest := func() {
		for _, p := range f.nodes {
			if snaps, err := getTraces(ctx, f.ctl, p.url, limit); err == nil {
				tr.harvest(p.name, snaps, seen)
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(harvestEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				harvest()
			}
		}
	}()
	tracedRs := lg.phaseAt(ctx, r.w.high, r.plan.high)
	close(stop)
	wg.Wait()
	harvest()
	r.tally(tracedRs)

	a := tr.analyze()
	add("engine.queue_wait_us_p99", "us", quantile(a.queueWaits, 0.99), len(a.queueWaits))
	baseLat, tracedLat := syncLatencies(base), syncLatencies(tracedRs)
	add("obs.trace_overhead_ratio", "ratio", ratio(quantile(tracedLat, 0.5), quantile(baseLat, 0.5)), len(tracedLat))
	add("trace.unattributed_ratio", "ratio", a.unattributed, a.matched)
	a.printTable(r.log)
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "spans written to %s\n", tracePath)
	return out, ctx.Err()
}

// hopPairs sends the same pattern spec directly to its ring owner and
// through the gateway, in interleaved pairs with alternating order,
// and returns gateway minus direct latency per pair (µs).
func (r *run) hopPairs(ctx context.Context, f *fleet, hc *http.Client, tr *tracer) ([]float64, error) {
	if f.gateway == nil {
		return nil, nil
	}
	t0 := time.Now()
	ring, err := cluster.NewRing(f.names(), 0)
	if err != nil {
		return nil, err
	}
	tr.layer("cluster.NewRing", t0, time.Now())
	var ops []*op
	var owners []string
	for i := range r.in.ops {
		o := &r.in.ops[i]
		if o.kind != kSync || o.jobs[0].spec.IsLoop() || o.jobs[0].ref.err != "" {
			continue
		}
		s := o.jobs[0].spec
		key := engine.RouteKey(engine.Request{Pattern: patternOf(s), AGU: s.AGU, InterIteration: s.Wrap, Strategy: s.Strategy})
		ops = append(ops, o)
		owners = append(owners, f.nodes[ring.Owner(key)].url)
		if len(ops) == 48 {
			break
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("no pattern sync specs for the hop pairs")
	}
	post := func(base string, o *op) (time.Duration, error) {
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, strings.NewReader(string(o.body)))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		drain(resp)
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("hop pair: %s answered %d", base, resp.StatusCode)
		}
		return time.Since(t0), nil
	}
	var hop []float64
	for i := 0; i < hopPairs+len(ops); i++ {
		o, owner := ops[i%len(ops)], owners[i%len(ops)]
		first, second := owner, f.gateway.url
		if i%2 == 1 {
			first, second = second, first
		}
		d1, err := post(first, o)
		if err != nil {
			return nil, err
		}
		d2, err := post(second, o)
		if err != nil {
			return nil, err
		}
		if i < len(ops) {
			continue // the first pass warms both paths' caches
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		hop = append(hop, us(d2-d1))
	}
	return hop, nil
}

// tracePathFor names a run's span file.
func tracePathFor(outDir, workload string, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}
