// Package api is the /v1 wire contract of the allocation service: the
// JSON request and response types rcaserve decodes and encodes, the
// gateway validates against before forwarding, the soak driver speaks,
// and the job write-ahead log stores. It also holds the edge helpers
// both servers share — the body cap, strict decoding, JSON and error
// responses, list bounds, request-ID hygiene and status capture — so
// a node and the gateway in front of it refuse exactly the same input.
//
// Every JSON tag here is part of the contract; TestWireGolden pins the
// encoded bytes.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// MaxBodyBytes caps request bodies; allocation requests are tiny, so
// anything bigger is abuse.
const MaxBodyBytes = 1 << 20

// GET /v1/jobs page bounds: the limit when none is given, and the
// largest page served (bigger limits are clamped to it).
const (
	DefaultListLimit = 100
	MaxListLimit     = 1000
)

// AGU is the wire form of model.AGUSpec.
type AGU struct {
	// Registers is K, the number of AGU address registers.
	Registers int `json:"registers"`
	// ModifyRange is M, the free post-modify range.
	ModifyRange int `json:"modifyRange"`
}

// Pattern is the wire form of model.Pattern.
type Pattern struct {
	// Array names the accessed array (informational).
	Array string `json:"array,omitempty"`
	// Stride is the loop increment per iteration; 0 means 1.
	Stride int `json:"stride,omitempty"`
	// Offsets is the access offset sequence in program order.
	Offsets []int `json:"offsets"`
}

// Job is one allocation job of an /v1/allocate or /v1/batch request.
// Exactly one of Pattern and Loop must be set: Pattern names the
// access pattern directly, Loop is mini-C loop source parsed by the
// frontend. A loop is allocated as a whole — the K registers are
// distributed over its arrays by marginal cost, exactly as
// dspaddr.AllocateLoop does — and yields one result per array.
type Job struct {
	Pattern  *Pattern       `json:"pattern,omitempty"`
	Loop     string         `json:"loop,omitempty"`
	Bindings map[string]int `json:"bindings,omitempty"`
	AGU      AGU            `json:"agu"`
	// Wrap includes inter-iteration updates in the objective.
	Wrap bool `json:"wrap,omitempty"`
	// Strategy selects the phase-2 merge heuristic
	// (greedy|naive|smallest|optimal); empty means greedy.
	Strategy string `json:"strategy,omitempty"`
}

// Alloc is the wire form of one array's allocation result.
type Alloc struct {
	Array            string  `json:"array"`
	Offsets          []int   `json:"offsets"`
	Cost             int     `json:"cost"`
	VirtualRegisters int     `json:"virtualRegisters"`
	RegistersUsed    int     `json:"registersUsed"`
	Merged           bool    `json:"merged"`
	CoverExact       bool    `json:"coverExact"`
	Registers        [][]int `json:"registers"`
	// GlobalRegisters maps this array's register indices to loop-wide
	// physical registers (loop jobs only).
	GlobalRegisters []int  `json:"globalRegisters,omitempty"`
	CacheHit        bool   `json:"cacheHit"`
	ElapsedMicros   int64  `json:"elapsedMicros"`
	Report          string `json:"report"`
}

// JobResponse is the outcome of one job: per-array results, or an
// error string.
type JobResponse struct {
	Error   string  `json:"error,omitempty"`
	Results []Alloc `json:"results,omitempty"`
}

// BatchRequest is the /v1/batch request body.
type BatchRequest struct {
	Jobs []Job `json:"jobs"`
}

// BatchResponse is the /v1/batch response body.
type BatchResponse struct {
	Results       []JobResponse `json:"results"`
	ElapsedMicros int64         `json:"elapsedMicros"`
}

// Submit is the POST /v1/jobs request body: either one inline job
// (the Job fields) or a batch under "jobs" — the same payloads the
// synchronous endpoints take — plus a scheduling priority.
type Submit struct {
	Job
	// Jobs is the batch form; mutually exclusive with the inline
	// single-job fields.
	Jobs []Job `json:"jobs,omitempty"`
	// Priority orders dispatch: higher runs first, equal priorities
	// stay FIFO. The whole submission shares one priority.
	Priority int `json:"priority,omitempty"`
}

// Entries resolves a submission to its jobs in payload order: the
// inline job alone, or the batch. A body that mixes both forms or
// carries neither is an error, and so is a job that sets both or
// neither of pattern and loop. Only the shape is checked here;
// semantic errors (bad loop source, infeasible AGU) surface on the
// job itself, exactly as the sync endpoints report them per job.
func (s *Submit) Entries() ([]Job, error) {
	single := s.Pattern != nil || s.Loop != ""
	entries := s.Jobs
	switch {
	case single && len(s.Jobs) > 0:
		return nil, errors.New("body mixes an inline job with a jobs array; pick one form")
	case single:
		entries = []Job{s.Job}
	case len(s.Jobs) == 0:
		return nil, errors.New("submission has no jobs")
	}
	for i, job := range entries {
		if job.Pattern != nil && job.Loop != "" {
			return nil, fmt.Errorf("job %d sets both pattern and loop; pick one", i)
		}
		if job.Pattern == nil && job.Loop == "" {
			return nil, fmt.Errorf("job %d needs a pattern or a loop", i)
		}
	}
	return entries, nil
}

// SubmitResponse is the 202 body: one ID per submitted job, in payload
// order; ID duplicates the single entry for one-job submissions.
type SubmitResponse struct {
	ID  string   `json:"id,omitempty"`
	IDs []string `json:"ids"`
}

// JobStatus is the wire form of one async job's status snapshot.
type JobStatus struct {
	ID              string       `json:"id"`
	State           string       `json:"state"`
	Priority        int          `json:"priority"`
	SubmittedAt     time.Time    `json:"submittedAt"`
	StartedAt       *time.Time   `json:"startedAt,omitempty"`
	FinishedAt      *time.Time   `json:"finishedAt,omitempty"`
	QueueWaitMicros int64        `json:"queueWaitMicros"`
	RunMicros       int64        `json:"runMicros"`
	Error           string       `json:"error,omitempty"`
	Result          *JobResponse `json:"result,omitempty"`
	// TraceID links the job back to the submitting request (and to
	// its own slow-trace entry under /debug/requests).
	TraceID string `json:"traceId,omitempty"`
}

// ListResponse is the GET /v1/jobs body.
type ListResponse struct {
	Jobs   []JobStatus `json:"jobs"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Limit  int         `json:"limit"`
}

// Error is the uniform error body.
type Error struct {
	Error string `json:"error"`
}

// WriteJSON marshals v with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone — nothing left to do
}

// WriteError sends the uniform error body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, Error{Error: fmt.Sprintf(format, args...)})
}

// DecodeRequest reads r's body, capped at MaxBodyBytes, and strictly
// decodes it into v. It returns the bytes it read, so a proxy can
// forward exactly the body it validated.
func DecodeRequest(r *http.Request, v any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	return body, DecodeStrict(body, v)
}

// DecodeStrict decodes one JSON value from data into v: unknown
// fields and trailing data are errors.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(any)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// QueryInt parses an integer query parameter; empty means def.
func QueryInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// ValidRequestID bounds what a server echoes back into headers, logs
// and JSON: non-empty, at most 128 bytes, printable ASCII without
// quotes.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// StatusWriter captures the response status for labeling; Status is 0
// until the handler writes a header.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

// WriteHeader records the first status written and passes it on.
func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}
