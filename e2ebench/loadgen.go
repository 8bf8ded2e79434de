// The open-loop load generator. Operations are due on a fixed
// schedule (op i of a phase at start + i/rate) whatever the server
// does; two connection workers (the box's CPU count) take the earliest
// due task, send it, and record latency from when it was due, so a
// stall charges its wait to every request queued behind it. Async
// operations (submit, then poll to a terminal state; cancels race a
// DELETE against the run) share the same two connections: their polls
// are scheduled tasks too.

package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

const (
	// conns is the client's connection count: at most nproc on the
	// 2-vCPU reference box, so the client never outnumbers the cores.
	conns = 2
	// pollStep and pollMax space the polls of one async job in mixed
	// traffic the way the repo's soak client (cmd/rcasoak) does: the
	// first poll as soon as the 202 arrives, then waits of 25 ms growing
	// by 25 ms per poll up to 200 ms.
	pollStep = 25 * time.Millisecond
	pollMax  = 200 * time.Millisecond
	// asyncDeadline bounds how long an accepted job may stay
	// non-terminal before it counts as failed.
	asyncDeadline = 10 * time.Second
	// requestTimeout bounds one HTTP exchange.
	requestTimeout = 30 * time.Second
)

type opKind int

const (
	kSync opKind = iota
	kBatch
	kAsync
	kCancel
	kBigN
)

func (k opKind) String() string {
	return [...]string{"sync", "batch", "async", "cancel", "bign"}[k]
}

// synchronous reports whether the op's latency is a sync request
// latency (the lat_* metrics).
func (k opKind) synchronous() bool { return k == kSync || k == kBatch }

// op is one pre-encoded operation.
type op struct {
	kind opKind
	path string // POST path
	body []byte
	jobs []job
}

// result is what one op produced. Times are offsets from phase start.
type result struct {
	kind      opKind
	due, sent time.Duration
	end       time.Duration // response of the (submit) request read
	verdict
	respBytes int
	// status and body hold a sync answer until the phase checks it.
	status int
	body   []byte
	// Async ops: the first terminal observation, and the job's own
	// queue wait and run time as the owning node reports them.
	terminal          time.Duration
	jobQueueUs, runUs int64
	traceID           string
	polls             int
}

func (r *result) latency() time.Duration { return r.end - r.due }

// taskKind selects what a worker does with a scheduled task.
type taskKind int

const (
	tOp taskKind = iota
	tPoll
	tCancel
)

type task struct {
	kind taskKind
	due  time.Duration
	idx  int    // op index within the phase
	id   string // async job id
}

type taskHeap []task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// loadgen drives one base URL with a shared op stream.
type loadgen struct {
	base   string
	hc     *http.Client
	ops    []op
	cursor int // next op of the stream; phases continue where the last stopped
	tr     *tracer
	// prefix names request ids, so harvested server traces match
	// client spans.
	prefix string
	phases int
	// pollAtOnce makes every poll follow the last at once instead of
	// backing off. The async probe sets it: it has one job in flight
	// on an idle fleet, so it resolves completion to one poll round
	// trip instead of a timer tick.
	pollAtOnce bool
}

// pollGap is the wait after a job's polls-th poll.
func (lg *loadgen) pollGap(polls int) time.Duration {
	if lg.pollAtOnce {
		return 0
	}
	return min(time.Duration(polls)*pollStep, pollMax)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// phaseAt runs the op stream at rate for dur.
func (lg *loadgen) phaseAt(ctx context.Context, rate float64, dur time.Duration) []result {
	interval := time.Duration(float64(time.Second) / rate)
	return lg.phase(ctx, max(1, int(dur/interval)), interval)
}

// burst sends the next n ops back to back: closed loop over the
// client's connections.
func (lg *loadgen) burst(ctx context.Context, n int) []result {
	return lg.phase(ctx, n, 0)
}

// phase sends the next n ops of the stream, op i due at i*interval
// from the phase start, and returns one result per op. The op stream
// wraps around when exhausted.
func (lg *loadgen) phase(ctx context.Context, n int, interval time.Duration) []result {
	lg.phases++
	ph := &phaseRun{
		lg:      lg,
		ctx:     ctx,
		ops:     make([]*op, n),
		results: make([]result, n),
		tasks:   &taskHeap{},
		tag:     fmt.Sprintf("%s-p%d-", lg.prefix, lg.phases),
	}
	for i := range ph.ops {
		ph.ops[i] = &lg.ops[lg.cursor%len(lg.ops)]
		lg.cursor++
		// An op the phase never gets to send (canceled run) is failed.
		ph.results[i] = result{kind: ph.ops[i].kind, verdict: verdict{out: outFailed, msg: "not sent"}}
		heap.Push(ph.tasks, task{kind: tOp, due: time.Duration(i) * interval, idx: i})
	}
	ph.start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.work()
		}()
	}
	wg.Wait()
	for i := range ph.results {
		r := &ph.results[i]
		switch {
		case r.body == nil:
		case r.kind == kSync:
			r.verdict = classifySync(ph.ops[i].jobs[0], r.status, r.body)
		default:
			r.verdict = classifyBatch(ph.ops[i].jobs, r.status, r.body)
		}
		r.body = nil
	}
	return ph.results
}

// phaseRun is the shared state of one phase's workers.
type phaseRun struct {
	lg      *loadgen
	ctx     context.Context
	start   time.Time
	tag     string
	ops     []*op
	results []result

	mu      sync.Mutex
	tasks   *taskHeap
	pending int // tasks taken but not finished; they may schedule more
}

func (ph *phaseRun) now() time.Duration { return time.Since(ph.start) }

// take pops the earliest task; ok is false once nothing is left or
// the run is canceled.
func (ph *phaseRun) take() (task, bool) {
	for {
		if ph.ctx.Err() != nil {
			return task{}, false
		}
		ph.mu.Lock()
		if ph.tasks.Len() > 0 {
			t := heap.Pop(ph.tasks).(task)
			ph.pending++
			ph.mu.Unlock()
			return t, true
		}
		idle := ph.pending == 0
		ph.mu.Unlock()
		if idle {
			return task{}, false
		}
		// The other worker is mid-request and may schedule a poll.
		time.Sleep(200 * time.Microsecond)
	}
}

func (ph *phaseRun) finish(next *task) {
	ph.mu.Lock()
	if next != nil {
		heap.Push(ph.tasks, *next)
	}
	ph.pending--
	ph.mu.Unlock()
}

func (ph *phaseRun) work() {
	var buf bytes.Buffer
	for {
		t, ok := ph.take()
		if !ok {
			return
		}
		if d := t.due - ph.now(); d > 0 {
			time.Sleep(d)
		}
		var next *task
		if ph.ctx.Err() == nil {
			switch t.kind {
			case tOp:
				next = ph.send(t, &buf)
			case tPoll:
				next = ph.poll(t, &buf)
			case tCancel:
				next = ph.cancel(t, &buf)
			}
		}
		ph.finish(next)
	}
}

// do runs one HTTP exchange, reading the body into buf.
func (ph *phaseRun) do(method, path, reqID, parent string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ph.ctx, method, ph.lg.base+path, nil)
	if err != nil {
		return 0, err
	}
	if rd != nil {
		req.Body = readCloser{rd}
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", reqID)
	start := time.Now()
	resp, err := ph.lg.hc.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	ph.lg.tr.span("http "+method+" "+routeOf(path), parent, reqID, start, time.Now())
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

func (ph *phaseRun) send(t task, buf *bytes.Buffer) *task {
	o := ph.ops[t.idx]
	r := &ph.results[t.idx]
	r.kind, r.due = o.kind, t.due
	r.traceID = fmt.Sprintf("%s%d", ph.tag, t.idx)
	r.sent = ph.now()
	status, err := ph.do(http.MethodPost, o.path, r.traceID, "", o.body, buf)
	r.end = ph.now()
	r.respBytes = buf.Len()
	if err != nil {
		r.verdict = verdict{out: outFailed, msg: "transport: " + err.Error()}
		return nil
	}
	switch o.kind {
	case kSync, kBatch:
		// Checked once the phase is over, so decoding answers does not
		// take CPU from the servers while they are being timed.
		r.status, r.body = status, append([]byte(nil), buf.Bytes()...)
	default:
		if status != http.StatusAccepted {
			r.verdict = submitVerdict(status, buf.Bytes())
			return nil
		}
		var sr wireSubmitResp
		if err := json.Unmarshal(buf.Bytes(), &sr); err != nil || sr.ID == "" {
			r.verdict = verdict{out: outWrong, msg: "202 without a job id"}
			return nil
		}
		// Until a poll sees a terminal state the op counts as failed.
		r.verdict = verdict{out: outFailed, msg: "job never observed terminal"}
		if o.kind == kCancel {
			// A deterministic short stagger races the cancel against
			// dispatch: the job may be queued, running or done.
			return &task{kind: tCancel, due: r.end + time.Duration(t.idx%3)*time.Millisecond, idx: t.idx, id: sr.ID}
		}
		return &task{kind: tPoll, due: r.end, idx: t.idx, id: sr.ID}
	}
	return nil
}

// submitVerdict classifies a non-202 answer to POST /v1/jobs: a 422
// is correct when the reference refuses the job too.
func submitVerdict(status int, body []byte) verdict {
	if refused(status) {
		return verdict{out: outFailed, msg: fmt.Sprintf("submit http %d", status)}
	}
	return verdict{out: outWrong, msg: fmt.Sprintf("submit http %d: %s", status, bytes.TrimSpace(body))}
}

func (ph *phaseRun) cancel(t task, buf *bytes.Buffer) *task {
	r := &ph.results[t.idx]
	status, err := ph.do(http.MethodDelete, "/v1/jobs/"+t.id, r.traceID+"-c", r.traceID, nil, buf)
	switch {
	case err != nil:
		r.verdict = verdict{out: outFailed, msg: "cancel transport: " + err.Error()}
		return nil
	case status == http.StatusOK || status == http.StatusConflict:
		// Canceled, or already terminal: poll for the final state.
	case refused(status):
		r.verdict = verdict{out: outFailed, msg: fmt.Sprintf("cancel http %d", status)}
		return nil
	default:
		r.verdict = verdict{out: outWrong, msg: fmt.Sprintf("cancel http %d", status)}
		return nil
	}
	return &task{kind: tPoll, due: ph.now(), idx: t.idx, id: t.id}
}

func (ph *phaseRun) poll(t task, buf *bytes.Buffer) *task {
	r := &ph.results[t.idx]
	o := ph.ops[t.idx]
	r.polls++
	status, err := ph.do(http.MethodGet, "/v1/jobs/"+t.id, fmt.Sprintf("%s-g%d", r.traceID, r.polls), r.traceID, nil, buf)
	now := ph.now()
	retry := &task{kind: tPoll, due: now + ph.lg.pollGap(r.polls), idx: t.idx, id: t.id}
	if now-r.sent > asyncDeadline {
		r.verdict = verdict{out: outFailed, msg: "job not terminal before the deadline"}
		return nil
	}
	switch {
	case err != nil || status == http.StatusServiceUnavailable:
		return retry
	case status != http.StatusOK:
		r.verdict = verdict{out: outWrong, msg: fmt.Sprintf("poll http %d", status)}
		return nil
	}
	var st wireStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		r.verdict = verdict{out: outWrong, msg: "undecodable job status"}
		return nil
	}
	switch st.State {
	case "queued", "running":
		return retry
	}
	r.terminal = now
	r.jobQueueUs, r.runUs = st.QueueWaitMicros, st.RunMicros
	r.verdict = classifyTerminal(o.jobs[0], st, o.kind == kCancel)
	return nil
}

// routeOf names a request path for span labels.
func routeOf(path string) string {
	if len(path) > len("/v1/jobs/") && path[:len("/v1/jobs/")] == "/v1/jobs/" {
		return "/v1/jobs/{id}"
	}
	return path
}
