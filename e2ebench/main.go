// Command e2ebench is the end-to-end benchmark of the serving stack:
// it builds cmd/rcaserve and cmd/rcagate from the tree it runs in,
// launches them on loopback, drives them with open-loop traffic from
// one process over at most two connections, checks every answer
// against the in-process reference allocator, and prints every metric
// by name with its unit and sample count.
//
// Usage, from the root of the tree (run.sh builds this command first):
//
//	bash e2ebench/run.sh --workload hot-allocate --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --compare .bench_out/a.json .bench_out/b.json
//
// Workloads are hot-allocate, cold-batch and gateway-mixed (see
// BENCHMARK.json). --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics from a separate traced run, prints a
// per-layer self-time table and writes the spans to .bench_out/. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero on
// any wrong answer or error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
	}
	// The client keeps every op stream in memory and allocates per
	// request; fewer collections mean fewer client pauses in the
	// timed phases.
	debug.SetGCPercent(400)
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for result and span files")
	cmp := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2ebench: --compare takes two result files")
			return 2
		}
		if err := compare(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	defs := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		defs = []*workloadDef{w}
	}
	if *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 4 and --trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	spinners, err := startSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer spinners.stop()
	results, err := runAll(ctx, root, defs, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}

	// One row per workload, then the JSON line (prefixed metric names
	// when more than one workload ran).
	line := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, rf := range results {
		printRow(os.Stdout, rf.file.Workload, rf.metrics)
		line.Correct = line.Correct && rf.file.Correct
		line.Attempted += rf.file.Attempted
		line.Failed += rf.file.Failed
		for _, m := range rf.metrics {
			if m.info {
				continue
			}
			key := m.name
			if len(results) > 1 {
				key = rf.file.Workload + "/" + m.name
			}
			line.Metrics[key] = mustJSON(struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{m.value, m.unit})
		}
	}
	fmt.Println(string(mustJSON(line)))
	if !line.Correct {
		return 1
	}
	return 0
}

type runOutput struct {
	file    *resultFile
	metrics []metric
}

func runAll(ctx context.Context, root string, defs []*workloadDef, seed int64, seconds int, traced bool, outDir string) ([]runOutput, error) {
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	bins, err := buildBinaries(ctx, root, dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "built rcaserve and rcagate in %.1fs\n", time.Since(t0).Seconds())
	st := machineStamp(root)
	var out []runOutput
	for _, w := range defs {
		o, err := runOne(ctx, w, bins, dir, seed, seconds, traced, outDir, st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out = append(out, o)
	}
	return out, nil
}

func runOne(ctx context.Context, w *workloadDef, bins *binaries, tmp string, seed int64, seconds int, traced bool, outDir string, st stamp) (runOutput, error) {
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return runOutput{}, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	p := planFor(seconds)
	orc := newOracle()
	in := w.inputs(w, seed, orc, p)
	distinct := len(orc.todo)
	if err := orc.solveAll(ctx); err != nil {
		return runOutput{}, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops, %d distinct jobs solved by the reference in %.1fs\n",
		w.name, len(in.ops), distinct, time.Since(t0).Seconds())

	r := &run{w: w, plan: p, bins: bins, dir: dir, in: in, log: os.Stderr}
	var got []metric
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return runOutput{}, err
		}
		got, err = r.traced(ctx, tracePathFor(outDir, w.name, seed))
	} else {
		got, err = r.measure(ctx)
	}
	if err != nil {
		return runOutput{}, err
	}
	if r.attempted == 0 {
		return runOutput{}, errors.New("no operation was attempted")
	}
	for _, m := range got {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return runOutput{}, fmt.Errorf("metric %s is not finite", m.name)
		}
	}
	for _, msg := range r.wrong {
		fmt.Fprintln(os.Stderr, "WRONG ANSWER:", msg)
	}
	rf := &resultFile{
		Stamp: st, Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]fileMetric{}, Wrong: r.wrong,
		Rates: map[string]float64{"low": w.low, "high": w.high, "limit_ms": ms(w.limit)},
	}
	for _, m := range got {
		rf.Metrics[m.name] = fileMetric{Value: m.value, Unit: m.unit, Samples: m.n}
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, map[bool]int{false: 0, true: 1}[traced]))
	if err := writeResult(path, rf); err != nil {
		return runOutput{}, err
	}
	return runOutput{file: rf, metrics: got}, nil
}
