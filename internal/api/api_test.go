package api

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestWireGolden pins the encoded bytes of the /v1 contract. rcaserve,
// rcagate, rcasoak and the job write-ahead log all speak these types,
// so a renamed field or a changed omitempty here silently breaks a
// mixed-version fleet or a WAL written by the previous build. Each
// golden also decodes strictly back into its type and re-encodes to
// the same bytes.
func TestWireGolden(t *testing.T) {
	submitted := time.Date(2026, 10, 17, 8, 0, 0, 0, time.UTC)
	finished := submitted.Add(1500 * time.Microsecond)
	pattern := Job{
		Pattern:  &Pattern{Array: "x", Stride: 2, Offsets: []int{1, 0, 2, -1}},
		AGU:      AGU{Registers: 2, ModifyRange: 1},
		Wrap:     true,
		Strategy: "optimal",
	}
	loop := Job{
		Loop:     "for (i=0; i<N; i++) a[i] = a[i+1];",
		Bindings: map[string]int{"N": 64},
		AGU:      AGU{Registers: 1, ModifyRange: 1},
	}
	const (
		patternJSON = `{"pattern":{"array":"x","stride":2,"offsets":[1,0,2,-1]},"agu":{"registers":2,"modifyRange":1},"wrap":true,"strategy":"optimal"}`
		loopJSON    = `{"loop":"for (i=0; i\u003cN; i++) a[i] = a[i+1];","bindings":{"N":64},"agu":{"registers":1,"modifyRange":1}}`
	)
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"pattern job", pattern, patternJSON},
		{"loop job", loop, loopJSON},
		{"minimal job", Job{Pattern: &Pattern{Offsets: []int{0}}},
			`{"pattern":{"offsets":[0]},"agu":{"registers":0,"modifyRange":0}}`},
		{"submit single", Submit{Job: pattern, Priority: 3},
			`{"pattern":{"array":"x","stride":2,"offsets":[1,0,2,-1]},"agu":{"registers":2,"modifyRange":1},"wrap":true,"strategy":"optimal","priority":3}`},
		// The batch form carries the inline job's zero "agu"; a node
		// ignores inline fields once "jobs" is set.
		{"submit batch", Submit{Jobs: []Job{pattern, loop}, Priority: -1},
			`{"agu":{"registers":0,"modifyRange":0},"jobs":[` + patternJSON + `,` + loopJSON + `],"priority":-1}`},
		{"batch request", BatchRequest{Jobs: []Job{loop}}, `{"jobs":[` + loopJSON + `]}`},
		{"alloc", Alloc{
			Array: "a", Offsets: []int{1, 0, 2}, Cost: 1, VirtualRegisters: 2, RegistersUsed: 1,
			Merged: true, CoverExact: true, Registers: [][]int{{0, 1, 2}}, GlobalRegisters: []int{0},
			CacheHit: true, ElapsedMicros: 3, Report: "r",
		}, `{"array":"a","offsets":[1,0,2],"cost":1,"virtualRegisters":2,"registersUsed":1,"merged":true,"coverExact":true,"registers":[[0,1,2]],"globalRegisters":[0],"cacheHit":true,"elapsedMicros":3,"report":"r"}`},
		{"job response", JobResponse{Results: []Alloc{{Offsets: []int{0}, Registers: [][]int{{0}}}}},
			`{"results":[{"array":"","offsets":[0],"cost":0,"virtualRegisters":0,"registersUsed":0,"merged":false,"coverExact":false,"registers":[[0]],"cacheHit":false,"elapsedMicros":0,"report":""}]}`},
		{"job error", JobResponse{Error: "boom"}, `{"error":"boom"}`},
		{"batch response", BatchResponse{Results: []JobResponse{{Error: "e"}}, ElapsedMicros: 9},
			`{"results":[{"error":"e"}],"elapsedMicros":9}`},
		{"submit response", SubmitResponse{ID: "a", IDs: []string{"a"}}, `{"id":"a","ids":["a"]}`},
		{"job status done", JobStatus{
			ID: "j-n1-abcd0123-00000001", State: "done", Priority: 3,
			SubmittedAt: submitted, StartedAt: &submitted, FinishedAt: &finished,
			RunMicros: 1500, Result: &JobResponse{Error: "x"}, TraceID: "r-1",
		}, `{"id":"j-n1-abcd0123-00000001","state":"done","priority":3,"submittedAt":"2026-10-17T08:00:00Z","startedAt":"2026-10-17T08:00:00Z","finishedAt":"2026-10-17T08:00:00.0015Z","queueWaitMicros":0,"runMicros":1500,"result":{"error":"x"},"traceId":"r-1"}`},
		{"job status queued", JobStatus{ID: "j-1", State: "queued", SubmittedAt: submitted},
			`{"id":"j-1","state":"queued","priority":0,"submittedAt":"2026-10-17T08:00:00Z","queueWaitMicros":0,"runMicros":0}`},
		{"list response", ListResponse{Jobs: []JobStatus{}, Limit: 100}, `{"jobs":[],"total":0,"offset":0,"limit":100}`},
		{"error", Error{Error: "e"}, `{"error":"e"}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s: wire bytes changed\n got %s\nwant %s", c.name, got, c.want)
			continue
		}
		back := reflect.New(reflect.TypeOf(c.v))
		if err := DecodeStrict([]byte(c.want), back.Interface()); err != nil {
			t.Errorf("%s: strict decode of its own encoding: %v", c.name, err)
			continue
		}
		if again, _ := json.Marshal(back.Elem().Interface()); string(again) != c.want {
			t.Errorf("%s: round trip changed bytes\n got %s\nwant %s", c.name, again, c.want)
		}
	}
}
