// The reference oracle: every spec the benchmark sends is solved
// in-process first, off the clock, with the same two-phase allocator
// the server runs (frontend.Parse, then core.Solver.Allocate or
// AllocateLoop). Each response is compared against that answer on
// cost, register assignment and echoed offsets; a 4xx the reference
// reproduces counts as a correct answer.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"dspaddr/internal/core"
	"dspaddr/internal/frontend"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/workload"
)

// refTimeout bounds one reference solve. The workloads are sized so
// that no reference comes near it; one that does is reported as a
// benchmark error rather than silently left unchecked.
const refTimeout = 20 * time.Second

// ---- wire types (the server decoder is strict: only known fields) ----

type wireAGU struct {
	Registers   int `json:"registers"`
	ModifyRange int `json:"modifyRange"`
}

type wirePattern struct {
	Stride  int   `json:"stride,omitempty"`
	Offsets []int `json:"offsets"`
}

type wireJob struct {
	Pattern  *wirePattern   `json:"pattern,omitempty"`
	Loop     string         `json:"loop,omitempty"`
	Bindings map[string]int `json:"bindings,omitempty"`
	AGU      wireAGU        `json:"agu"`
	Wrap     bool           `json:"wrap,omitempty"`
	Strategy string         `json:"strategy,omitempty"`
}

type wireSubmit struct {
	wireJob
	Priority int `json:"priority,omitempty"`
}

type wireBatch struct {
	Jobs []wireJob `json:"jobs"`
}

// wireAlloc decodes only the fields the oracle and the layer table
// read from one array's result.
type wireAlloc struct {
	Array           string  `json:"array"`
	Offsets         []int   `json:"offsets"`
	Cost            int     `json:"cost"`
	Registers       [][]int `json:"registers"`
	GlobalRegisters []int   `json:"globalRegisters"`
	CacheHit        bool    `json:"cacheHit"`
	ElapsedMicros   int64   `json:"elapsedMicros"`
}

type wireJobResp struct {
	Error   string      `json:"error"`
	Results []wireAlloc `json:"results"`
}

type wireBatchResp struct {
	Results       []wireJobResp `json:"results"`
	ElapsedMicros int64         `json:"elapsedMicros"`
}

type wireSubmitResp struct {
	ID string `json:"id"`
}

type wireStatus struct {
	State           string       `json:"state"`
	Error           string       `json:"error"`
	QueueWaitMicros int64        `json:"queueWaitMicros"`
	RunMicros       int64        `json:"runMicros"`
	Result          *wireJobResp `json:"result"`
}

func toWireJob(s workload.JobSpec) wireJob {
	j := wireJob{
		AGU:      wireAGU{Registers: s.AGU.Registers, ModifyRange: s.AGU.ModifyRange},
		Wrap:     s.Wrap,
		Strategy: s.Strategy,
	}
	if s.IsLoop() {
		j.Loop, j.Bindings = s.Loop, s.Bindings
	} else {
		j.Pattern = &wirePattern{Stride: s.Pattern.Stride, Offsets: s.Pattern.Offsets}
	}
	return j
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types always marshal
	}
	return b
}

// ---- reference answers ----

// refArray is one array's expected result.
type refArray struct {
	array     string // compared for loop jobs only (pattern jobs send no name)
	offsets   []int
	cost      int
	registers [][]int
	global    []int
}

// refAnswer is the expected outcome of one job: an error (the server
// must refuse it with a 4xx) or one result per array.
type refAnswer struct {
	err    string
	arrays []refArray
}

// job pairs a spec with its reference answer.
type job struct {
	spec workload.JobSpec
	ref  *refAnswer
}

func strategyByName(name string) merge.Strategy {
	switch name {
	case "naive":
		return merge.Naive{}
	case "smallest":
		return merge.SmallestTwo{}
	case "optimal":
		return merge.Optimal{}
	default:
		return merge.Greedy{}
	}
}

func resultArray(r *core.Result) refArray {
	regs := make([][]int, len(r.Assignment.Paths))
	for i, p := range r.Assignment.Paths {
		regs[i] = []int(p)
	}
	return refArray{array: r.Pattern.Array, offsets: r.Pattern.Offsets, cost: r.Cost, registers: regs}
}

// solveReference computes the expected answer for one spec.
func solveReference(ctx context.Context, s *core.Solver, spec workload.JobSpec) (*refAnswer, error) {
	ctx, cancel := context.WithTimeout(ctx, refTimeout)
	defer cancel()
	cfg := core.Config{AGU: spec.AGU, InterIteration: spec.Wrap, Strategy: strategyByName(spec.Strategy)}
	if spec.IsLoop() {
		prog, err := frontend.Parse(spec.Loop, spec.Bindings)
		if err != nil {
			return &refAnswer{err: err.Error()}, nil
		}
		res, err := s.AllocateLoop(ctx, prog.Loop, cfg)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("reference solve of %s: %w", spec.Key(), ctx.Err())
		}
		if err != nil {
			return &refAnswer{err: err.Error()}, nil
		}
		ans := &refAnswer{}
		for _, aa := range res.Arrays {
			ra := resultArray(aa.Result)
			ra.global = aa.GlobalRegisters
			ans.arrays = append(ans.arrays, ra)
		}
		return ans, nil
	}
	pat := spec.Pattern
	if pat.Stride == 0 {
		pat.Stride = 1
	}
	res, err := s.Allocate(ctx, pat, cfg)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("reference solve of %s: %w", spec.Key(), ctx.Err())
	}
	if err != nil {
		return &refAnswer{err: err.Error()}, nil
	}
	return &refAnswer{arrays: []refArray{resultArray(res)}}, nil
}

// oracle deduplicates specs by key and solves each once.
type oracle struct {
	refs map[string]*refAnswer
	todo []workload.JobSpec
}

func newOracle() *oracle { return &oracle{refs: map[string]*refAnswer{}} }

// add registers a spec and returns the job whose ref is filled in by
// solveAll (the pointer is shared by every job with the same key).
func (o *oracle) add(spec workload.JobSpec) job {
	k := spec.Key()
	ref, ok := o.refs[k]
	if !ok {
		ref = &refAnswer{}
		o.refs[k] = ref
		o.todo = append(o.todo, spec)
	}
	return job{spec: spec, ref: ref}
}

// solveAll solves every pending spec on GOMAXPROCS solvers.
func (o *oracle) solveAll(ctx context.Context) error {
	todo := o.todo
	o.todo = nil
	workers := runtime.GOMAXPROCS(0)
	var (
		next   = make(chan workload.JobSpec)
		wg     sync.WaitGroup
		mu     sync.Mutex
		firstE error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := core.NewSolver()
			for spec := range next {
				ans, err := solveReference(ctx, s, spec)
				mu.Lock()
				if err != nil && firstE == nil {
					firstE = err
				}
				if ans != nil {
					*o.refs[spec.Key()] = *ans
				}
				mu.Unlock()
			}
		}()
	}
	for _, spec := range todo {
		next <- spec
	}
	close(next)
	wg.Wait()
	return firstE
}

// ---- comparison ----

// check compares one job's wire answer with the reference; nil means
// the answer is correct.
func (r *refAnswer) check(spec workload.JobSpec, got wireJobResp) error {
	if r.err != "" {
		if got.Error == "" {
			return fmt.Errorf("server solved a job the reference refuses (%s)", r.err)
		}
		return nil
	}
	if got.Error != "" {
		return fmt.Errorf("server refused a job the reference solves: %s", got.Error)
	}
	if len(got.Results) != len(r.arrays) {
		return fmt.Errorf("%d arrays in the answer, reference has %d", len(got.Results), len(r.arrays))
	}
	for i, want := range r.arrays {
		g := got.Results[i]
		switch {
		case spec.IsLoop() && g.Array != want.array:
			return fmt.Errorf("array %d is %q, reference %q", i, g.Array, want.array)
		case !slices.Equal(g.Offsets, want.offsets):
			return fmt.Errorf("array %d echoes offsets %v, request had %v", i, g.Offsets, want.offsets)
		case g.Cost != want.cost:
			return fmt.Errorf("array %d cost %d, reference %d", i, g.Cost, want.cost)
		case !slices.EqualFunc(g.Registers, want.registers, slices.Equal[[]int]):
			return fmt.Errorf("array %d registers %v, reference %v", i, g.Registers, want.registers)
		case spec.IsLoop() && !slices.Equal(g.GlobalRegisters, want.global):
			return fmt.Errorf("array %d global registers %v, reference %v", i, g.GlobalRegisters, want.global)
		}
	}
	return nil
}

// outcome classifies one operation.
type outcome int

const (
	outOK     outcome = iota
	outFailed         // transport error, 5xx, 429/503 refusal, timeout
	outWrong          // an answer that differs from the reference
)

// verdict is the classification of one response: its outcome, why it
// is not OK, and the server-side elapsed time the response reports.
type verdict struct {
	out      outcome
	msg      string
	serverUs int64
}

// refused reports whether a status is a failure rather than an answer:
// 429/503 refusals, timeouts and other 5xx.
func refused(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// classifySync maps a synchronous /v1/allocate answer to a verdict.
// A 422 is correct exactly when the reference refuses the job too.
func classifySync(j job, status int, body []byte) verdict {
	if refused(status) {
		return verdict{out: outFailed, msg: fmt.Sprintf("http %d", status)}
	}
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		return verdict{out: outWrong, msg: fmt.Sprintf("unexpected http %d", status)}
	}
	var resp wireJobResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return verdict{out: outWrong, msg: fmt.Sprintf("undecodable %d body: %v", status, err)}
	}
	v := verdict{}
	for _, r := range resp.Results {
		v.serverUs = max(v.serverUs, r.ElapsedMicros)
	}
	if status == http.StatusUnprocessableEntity && resp.Error == "" {
		v.out, v.msg = outWrong, "422 without an error"
	} else if err := j.ref.check(j.spec, resp); err != nil {
		v.out, v.msg = outWrong, err.Error()
	}
	return v
}

// classifyBatch maps a /v1/batch answer to a verdict; the first wrong
// job decides.
func classifyBatch(jobs []job, status int, body []byte) verdict {
	if refused(status) {
		return verdict{out: outFailed, msg: fmt.Sprintf("http %d", status)}
	}
	if status != http.StatusOK {
		return verdict{out: outWrong, msg: fmt.Sprintf("unexpected http %d", status)}
	}
	var resp wireBatchResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return verdict{out: outWrong, msg: fmt.Sprintf("undecodable batch body: %v", err)}
	}
	v := verdict{serverUs: resp.ElapsedMicros}
	if len(resp.Results) != len(jobs) {
		v.out, v.msg = outWrong, fmt.Sprintf("%d jobs in, %d results out", len(jobs), len(resp.Results))
		return v
	}
	for i, j := range jobs {
		if err := j.ref.check(j.spec, resp.Results[i]); err != nil {
			v.out, v.msg = outWrong, fmt.Sprintf("job %d: %v", i, err)
			return v
		}
	}
	return v
}

// classifyTerminal maps an async job's terminal status to an outcome.
// A cancel op may legitimately end canceled; a refused job must be a
// job the reference refuses.
func classifyTerminal(j job, st wireStatus, cancelOp bool) verdict {
	switch st.State {
	case "done":
		if st.Result == nil {
			return verdict{out: outWrong, msg: "done without a result"}
		}
		if err := j.ref.check(j.spec, *st.Result); err != nil {
			return verdict{out: outWrong, msg: err.Error()}
		}
		return verdict{}
	case "failed":
		if j.ref.err == "" {
			return verdict{out: outWrong, msg: "job failed, reference solves it: " + st.Error}
		}
		return verdict{}
	case "canceled":
		if cancelOp {
			return verdict{}
		}
		return verdict{out: outWrong, msg: "job canceled without a cancel request"}
	default: // timeout
		return verdict{out: outFailed, msg: "job " + st.State}
	}
}

// patternOf rebuilds the model pattern of a pattern spec with the
// server's stride default.
func patternOf(spec workload.JobSpec) model.Pattern {
	p := spec.Pattern
	if p.Stride == 0 {
		p.Stride = 1
	}
	return p
}
