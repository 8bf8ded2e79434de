// In-process layer timings for the traced run: the benchmark calls
// each layer's public functions on the workload's own specs and times
// every call from outside — frontend.Parse, distgraph.Build,
// pathcover.MinCoverCtx, merge.ReduceContext, core.Solver.Allocate and
// engine.Engine.Run (cold, then warm). Allocations are counted from
// runtime.MemStats around a separate pass that makes only the calls.

package main

import (
	"context"
	"runtime"
	"time"

	"dspaddr/internal/core"
	"dspaddr/internal/distgraph"
	"dspaddr/internal/engine"
	"dspaddr/internal/frontend"
	"dspaddr/internal/merge"
	"dspaddr/internal/pathcover"
	"dspaddr/internal/workload"
)

const (
	// layerMinSamples is the call count a pass repeats its specs to
	// reach, within layerBudget of wall time.
	layerMinSamples = 1000
	layerBudget     = 400 * time.Millisecond
)

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// repeat calls fn over specs, repeating the list until it has made
// layerMinSamples calls or spent layerBudget (every spec at least
// once). It returns each call's duration in µs and the allocations
// per call. A spec a layer refuses still costs a call: the reference
// and the server refuse it too. The allocations come from a second
// pass of as many calls with no timing or tracing around them, so the
// benchmark's own bookkeeping is not counted.
func repeat(specs []workload.JobSpec, tr *tracer, name string, fn func(workload.JobSpec)) (durs []float64, allocsPerOp float64) {
	if len(specs) == 0 {
		return nil, 0
	}
	deadline := time.Now().Add(layerBudget)
	for i := 0; ; i++ {
		if i >= len(specs) && (len(durs) >= layerMinSamples || time.Now().After(deadline)) {
			break
		}
		start := time.Now()
		fn(specs[i%len(specs)])
		end := time.Now()
		tr.layer(name, start, end)
		durs = append(durs, us(end.Sub(start)))
	}
	m0 := mallocs()
	for i := range durs {
		fn(specs[i%len(specs)])
	}
	return durs, float64(mallocs()-m0) / float64(len(durs))
}

// timeLayers measures every in-process layer on specs and returns the
// per-layer metrics.
func timeLayers(ctx context.Context, specs []workload.JobSpec, tr *tracer) ([]metric, error) {
	var loops, pats []workload.JobSpec
	for _, s := range specs {
		if s.IsLoop() {
			loops = append(loops, s)
		} else {
			pats = append(pats, s)
		}
	}
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, n: n})
	}

	parse, _ := repeat(loops, tr, "frontend.Parse", func(s workload.JobSpec) {
		frontend.Parse(s.Loop, s.Bindings) //nolint:errcheck // timed either way
	})
	add("frontend.parse_us_p50", "us", quantile(parse, 0.5), len(parse))

	solver := core.NewSolver()
	alloc, coreAllocs := repeat(pats, tr, "core.Solver.Allocate", func(s workload.JobSpec) {
		solver.Allocate(ctx, patternOf(s), configOf(s)) //nolint:errcheck // timed either way
	})
	add("core.allocate_us_p50", "us", quantile(alloc, 0.5), len(alloc))
	add("core.allocs_per_op", "count", coreAllocs, len(alloc))

	var edges, nodes, merges int
	var build, cover, reduce []float64
	var sc pathcover.Scratch
	var msc merge.Scratch
	for _, s := range pats {
		pat, cfg := patternOf(s), configOf(s)
		t0 := time.Now()
		dg, err := distgraph.Build(pat, cfg.AGU.ModifyRange)
		t1 := time.Now()
		if err != nil {
			continue // the server refuses it too; nothing to time below
		}
		tr.layer("distgraph.Build", t0, t1)
		build = append(build, us(t1.Sub(t0)))
		edges += dg.EdgeCount()
		c, err := pathcover.MinCoverCtx(ctx, dg, cfg.InterIteration, nil, &sc)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		tr.layer("pathcover.MinCoverCtx", t1, t2)
		cover = append(cover, us(t2.Sub(t1)))
		nodes += c.Nodes
		if c.K() > cfg.AGU.Registers {
			_, err := merge.ReduceContext(ctx, cfg.Strategy, c.Paths, pat, cfg.AGU.ModifyRange, cfg.InterIteration, cfg.AGU.Registers, &msc)
			t3 := time.Now()
			if err != nil {
				return nil, err
			}
			tr.layer("merge.ReduceContext", t2, t3)
			reduce = append(reduce, us(t3.Sub(t2)))
			merges++
		}
	}
	add("distgraph.build_us_p50", "us", quantile(build, 0.5), len(build))
	add("distgraph.edges_per_op", "count", ratio(float64(edges), float64(len(build))), len(build))
	add("pathcover.cover_us_p50", "us", quantile(cover, 0.5), len(cover))
	add("pathcover.cover_us_p99", "us", quantile(cover, 0.99), len(cover))
	add("pathcover.nodes_per_op", "count", ratio(float64(nodes), float64(len(cover))), len(cover))
	add("merge.reduce_us_p50", "us", quantile(reduce, 0.5), merges)

	eng := engine.New(engine.Options{})
	defer eng.Close()
	run := func(s workload.JobSpec) {
		eng.Run(ctx, engine.Request{Pattern: patternOf(s), AGU: s.AGU, InterIteration: s.Wrap, Strategy: s.Strategy})
	}
	var miss []float64
	for _, s := range pats {
		t0 := time.Now()
		run(s)
		t1 := time.Now()
		tr.layer("engine.Engine.Run miss", t0, t1)
		miss = append(miss, us(t1.Sub(t0)))
	}
	hit, hitAllocs := repeat(pats, tr, "engine.Engine.Run hit", run)
	add("engine.run_miss_us_p50", "us", quantile(miss, 0.5), len(miss))
	add("engine.run_hit_us_p50", "us", quantile(hit, 0.5), len(hit))
	add("engine.run_hit_allocs_per_op", "count", hitAllocs, len(hit))
	return out, nil
}

func configOf(s workload.JobSpec) core.Config {
	return core.Config{AGU: s.AGU, InterIteration: s.Wrap, Strategy: strategyByName(s.Strategy)}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
