// The three workloads. Each builds its inputs from the seed alone:
// the op streams are generated, encoded and solved by the reference
// oracle before any server starts, so the servers receive only the
// generated requests and the clock never runs during generation.

package main

import (
	"fmt"
	"math/rand"
	"time"

	"dspaddr/internal/model"
	"dspaddr/internal/workload"
)

// workloadDef describes one workload: its traffic, the two fixed
// open-loop rates and the sync p99 limit the goodput search holds.
type workloadDef struct {
	name string
	// low and high are the fixed offered rates in ops/s.
	low, high float64
	// limit is the sync latency p99 a goodput step must stay within.
	limit time.Duration
	// gateway puts rcagate in front of two WAL'd rcaserve nodes.
	gateway bool
	// probeRate paces the async probe's submits.
	probeRate float64
	inputs    func(w *workloadDef, seed int64, o *oracle, p plan) inputs
}

// plan splits a run's measured time between its phases.
type plan struct {
	low, high, probe, search time.Duration
}

func planFor(seconds int) plan {
	total := time.Duration(seconds) * time.Second
	return plan{low: total / 4, high: total / 4, probe: total / 6, search: total / 3}
}

// probeOps is the number of async probe submits a run sends.
func probeOps(w *workloadDef, p plan) int {
	return probeChunks * (int(w.probeRate*p.probe.Seconds()) / probeChunks)
}

// inputs are a workload's generated op streams.
type inputs struct {
	// warm is sent closed-loop during set-up.
	warm []op
	// ops is the measured stream; phases consume it in order.
	ops []op
	// probe holds the single-job async submits of the async probe.
	probe []op
	// layerSpecs are the distinct specs the in-process layer timings
	// replay.
	layerSpecs []workload.JobSpec
}

var workloads = []*workloadDef{
	{
		name:  "hot-allocate",
		low:   1000,
		high:  2000,
		limit: 100 * time.Millisecond,
		// A hit completes at once: the probe measures submit plus poll,
		// about half a millisecond, and keeps the node mostly idle.
		probeRate: 200,
		inputs: func(w *workloadDef, seed int64, o *oracle, p plan) inputs {
			// Every seed measures the same 48-spec pool (its kernels and
			// patterns set the cost of a hit); the seed picks where in
			// the pool generator's stream the run starts, so the order
			// of requests and the fresh patterns differ.
			gen := workload.NewTrafficGen(hotPoolSeed, workload.TrafficOptions{
				Mix: workload.Mix{Sync: 1}, PoolSize: 48, FreshFraction: 20,
			})
			for i := uint64(0); i < uint64(seed)%1000*1000; i++ {
				gen.Next()
			}
			const warm = 600
			need, probe := warm+opsFor(p, w, 2), probeOps(w, p)
			ops := make([]workload.Op, need+probe)
			for i := range ops {
				ops[i] = gen.Next()
			}
			unwrapFresh(ops)
			enc := newEncoder(o)
			all := make([]op, 0, need+probe)
			for _, t := range ops {
				all = append(all, enc.single(kSync, t.Jobs[0], 0))
			}
			in := inputs{warm: all[:warm], ops: all[warm:need]}
			for _, sync := range all[need:] {
				in.probe = append(in.probe, enc.single(kAsync, sync.jobs[0].spec, 0))
			}
			in.layerSpecs = enc.distinct(in.ops[:2000])
			return in
		},
	},
	{
		name:  "cold-batch",
		low:   55,
		high:  80,
		limit: time.Second,
		// Cold async jobs run for about a millisecond, the wrap ones far
		// longer: the probe keeps well below saturation.
		probeRate: 150,
		inputs: func(w *workloadDef, seed int64, o *oracle, p plan) inputs {
			rng := rand.New(rand.NewSource(seed))
			enc := newEncoder(o)
			const batch, wraps, prefill = 16, 3, 256
			var in inputs
			// Warm-up fills the cache with cheap unique jobs, so the
			// measured stream evicts from its first request on.
			for b := 0; b < prefill; b++ {
				specs := make([]workload.JobSpec, batch)
				for i := range specs {
					specs[i] = fillerJob(rng)
				}
				in.warm = append(in.warm, enc.batch(specs))
			}
			// The measured stream cycles through the batches the low
			// phase sends, at least 384 (6144 jobs, 1.5x the cache's 4096
			// entries), so a job is always evicted before it comes round
			// again. Each batch holds 3 wrap jobs and 13 without. About
			// 1 in 100 wrap jobs solves for 20-150 ms and they set the
			// tail and most of the CPU a batch costs, so the wrap jobs
			// come from one fixed set that every seed sends in its own
			// order: each phase carries the same slow jobs.
			cycle := max(int(w.low*p.low.Seconds()), 384)
			seen := map[string]bool{}
			wrapRng := rand.New(rand.NewSource(coldWrapSeed))
			wrapJobs := make([]workload.JobSpec, cycle*wraps)
			for i := range wrapJobs {
				wrapJobs[i] = coldJob(wrapRng, seen, true)
			}
			rng.Shuffle(len(wrapJobs), func(i, j int) { wrapJobs[i], wrapJobs[j] = wrapJobs[j], wrapJobs[i] })
			for b := 0; b < cycle; b++ {
				specs := append([]workload.JobSpec(nil), wrapJobs[b*wraps:(b+1)*wraps]...)
				for len(specs) < batch {
					specs = append(specs, coldJob(rng, seen, false))
				}
				rng.Shuffle(batch, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
				in.ops = append(in.ops, enc.batch(specs))
			}
			for i := 0; i < probeOps(w, p); i++ {
				in.probe = append(in.probe, enc.single(kAsync, coldJob(rng, seen, i%5 == 0), 0))
			}
			in.layerSpecs = enc.distinct(in.ops[:24])
			return in
		},
	},
	{
		name:    "gateway-mixed",
		low:     200,
		high:    400,
		limit:   100 * time.Millisecond,
		gateway: true,
		// A job runs for tens of microseconds: a submit and a poll
		// through the gateway take about a millisecond.
		probeRate: 200,
		inputs: func(w *workloadDef, seed int64, o *oracle, p plan) inputs {
			gen := workload.NewTrafficGen(seed, workload.TrafficOptions{Mix: workload.DefaultMix()})
			const warm = 300
			need := warm + opsFor(p, w, 2)
			ops := make([]workload.Op, need)
			for i := range ops {
				ops[i] = gen.Next()
			}
			// The probe sends the async submits that follow in the
			// same stream.
			var probes []workload.Op
			for len(probes) < probeOps(w, p) {
				if t := gen.Next(); t.Kind == workload.OpAsync {
					probes = append(probes, t)
				}
			}
			unwrapFresh(append(ops, probes...))
			enc := newEncoder(o)
			all := make([]op, 0, need)
			for _, t := range ops {
				all = append(all, enc.fromTraffic(t))
			}
			in := inputs{warm: all[:warm], ops: all[warm:]}
			for _, t := range probes {
				in.probe = append(in.probe, enc.fromTraffic(t))
			}
			in.layerSpecs = enc.distinct(in.ops[:min(len(in.ops), 400)])
			return in
		},
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opsFor sizes a measured stream: both fixed phases plus a goodput
// search at up to searchMul times the high rate. Streams wrap around
// if a search runs longer.
func opsFor(p plan, w *workloadDef, searchMul float64) int {
	return int(w.low*p.low.Seconds() + w.high*p.high.Seconds() + searchMul*w.high*p.search.Seconds())
}

// unwrapFresh turns wrap off for every job drawn only once in the
// stream (the fresh patterns; the recurring pool keeps its wrap jobs).
// The wrap-aware phase-1 search is exponential in N: a rare fresh wrap
// job of N near 23 solves for 100ms or more and stalls one of the two
// connections, so without this a few seed-dependent requests would
// decide the tail latencies of a cache-hit workload.
func unwrapFresh(ops []workload.Op) {
	uses := map[string]int{}
	for _, t := range ops {
		for _, j := range t.Jobs {
			uses[j.Key()]++
		}
	}
	for _, t := range ops {
		for i, j := range t.Jobs {
			if uses[j.Key()] == 1 {
				t.Jobs[i].Wrap = false
			}
		}
	}
}

// Seeds of the parts of the inputs every run shares (see the hot-allocate
// and cold-batch input functions).
const (
	hotPoolSeed  = 48
	coldWrapSeed = 16
)

// coldJob draws one unique cold-batch job: N 48-96 without wrap, or N
// 16-24 with wrap; K 1-4, M 0-2, 1 in 8 with the smallest-two merge,
// else greedy.
func coldJob(rng *rand.Rand, seen map[string]bool, wrap bool) workload.JobSpec {
	for {
		n := 48 + rng.Intn(49)
		if wrap {
			n = 16 + rng.Intn(9)
		}
		pat, err := workload.RandomPattern(rng, workload.RandomParams{
			N: n, OffsetRange: 8 + rng.Intn(25), Dist: workload.Distribution(rng.Intn(3)),
		})
		if err != nil {
			panic(err) // parameters are in range by construction
		}
		spec := workload.JobSpec{
			Pattern: pat,
			AGU:     model.AGUSpec{Registers: 1 + rng.Intn(4), ModifyRange: rng.Intn(3)},
			Wrap:    wrap,
		}
		if rng.Intn(8) == 0 {
			spec.Strategy = "smallest"
		}
		if k := spec.Key(); !seen[k] {
			seen[k] = true
			return spec
		}
	}
}

// fillerJob draws a cheap job with offsets spread so wide that it is
// unique: it fills a cache entry at almost no solve cost.
func fillerJob(rng *rand.Rand) workload.JobSpec {
	pat, err := workload.RandomPattern(rng, workload.RandomParams{N: 8, OffsetRange: 1 << 20})
	if err != nil {
		panic(err)
	}
	return workload.JobSpec{Pattern: pat, AGU: model.AGUSpec{Registers: 2, ModifyRange: 1}}
}

// encoder turns specs into pre-encoded ops, registering every job
// with the oracle and reusing the encoding of a repeated spec.
type encoder struct {
	o      *oracle
	bodies map[string][]byte
}

func newEncoder(o *oracle) *encoder { return &encoder{o: o, bodies: map[string][]byte{}} }

func (e *encoder) single(kind opKind, spec workload.JobSpec, priority int) op {
	path := "/v1/jobs"
	if kind == kSync {
		path = "/v1/allocate"
	}
	key := fmt.Sprintf("%d|%d|%s", kind, priority, spec.Key())
	body, ok := e.bodies[key]
	if !ok {
		if kind == kSync {
			body = mustJSON(toWireJob(spec))
		} else {
			body = mustJSON(wireSubmit{wireJob: toWireJob(spec), Priority: priority})
		}
		e.bodies[key] = body
	}
	return op{kind: kind, path: path, body: body, jobs: []job{e.o.add(spec)}}
}

func (e *encoder) batch(specs []workload.JobSpec) op {
	o := op{kind: kBatch, path: "/v1/batch", jobs: make([]job, len(specs))}
	wb := wireBatch{Jobs: make([]wireJob, len(specs))}
	for i, s := range specs {
		o.jobs[i] = e.o.add(s)
		wb.Jobs[i] = toWireJob(s)
	}
	o.body = mustJSON(wb)
	return o
}

// fromTraffic converts one generated op of the default mix. Big-N
// jobs are sent without wrap: the wrap-aware phase-1 search is
// exponential at N 28-35 and would only measure the job deadline.
func (e *encoder) fromTraffic(t workload.Op) op {
	switch t.Kind {
	case workload.OpSync:
		return e.single(kSync, t.Jobs[0], 0)
	case workload.OpBatch:
		return e.batch(t.Jobs)
	case workload.OpCancel:
		return e.single(kCancel, t.Jobs[0], t.Priority)
	case workload.OpBigN:
		spec := t.Jobs[0]
		spec.Wrap = false
		return e.single(kBigN, spec, t.Priority)
	default:
		return e.single(kAsync, t.Jobs[0], t.Priority)
	}
}

// distinct lists the distinct specs of ops in first-use order.
func (e *encoder) distinct(ops []op) []workload.JobSpec {
	seen := map[string]bool{}
	var out []workload.JobSpec
	for _, o := range ops {
		for _, j := range o.jobs {
			if k := j.spec.Key(); !seen[k] {
				seen[k] = true
				out = append(out, j.spec)
			}
		}
	}
	return out
}
