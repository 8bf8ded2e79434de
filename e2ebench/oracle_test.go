package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"dspaddr/internal/core"
	"dspaddr/internal/model"
	"dspaddr/internal/workload"
)

// answerOf renders a reference answer the way rcaserve puts it on the
// wire.
func answerOf(ref *refAnswer) wireJobResp {
	var resp wireJobResp
	if ref.err != "" {
		resp.Error = ref.err
		return resp
	}
	for _, a := range ref.arrays {
		resp.Results = append(resp.Results, wireAlloc{
			Array: a.array, Offsets: a.offsets, Cost: a.cost, Registers: a.registers, GlobalRegisters: a.global,
		})
	}
	return resp
}

func solved(t *testing.T, spec workload.JobSpec) job {
	t.Helper()
	o := newOracle()
	j := o.add(spec)
	if err := o.solveAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return j
}

func body(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// paperPattern is the paper's running example at K=1: phase 2 merges,
// so the cost and the register assignment are both non-trivial.
var paperPattern = workload.JobSpec{
	Pattern: model.Pattern{Array: "A", Stride: 1, Offsets: []int{1, 0, 2, -1, 1, 0, -2}},
	AGU:     model.AGUSpec{Registers: 1, ModifyRange: 1},
}

func TestOracleAcceptsTheReferenceAnswer(t *testing.T) {
	j := solved(t, paperPattern)
	if j.ref.err != "" || len(j.ref.arrays) != 1 || j.ref.arrays[0].cost == 0 {
		t.Fatalf("unexpected reference %+v", j.ref)
	}
	if v := classifySync(j, http.StatusOK, body(t, answerOf(j.ref))); v.out != outOK {
		t.Fatalf("correct answer classified %v: %s", v.out, v.msg)
	}
}

func TestOracleCatchesPlantedWrongAnswers(t *testing.T) {
	j := solved(t, paperPattern)
	plants := map[string]func(*wireJobResp){
		"cost":      func(r *wireJobResp) { r.Results[0].Cost++ },
		"registers": func(r *wireJobResp) { r.Results[0].Registers[0] = r.Results[0].Registers[0][1:] },
		"offsets":   func(r *wireJobResp) { r.Results[0].Offsets = append([]int{9}, r.Results[0].Offsets[1:]...) },
		"arrays":    func(r *wireJobResp) { r.Results = append(r.Results, r.Results[0]) },
		"refusal":   func(r *wireJobResp) { r.Results, r.Error = nil, "planted" },
	}
	for name, plant := range plants {
		t.Run(name, func(t *testing.T) {
			resp := answerOf(j.ref)
			// Deep-copy the slices the plant may modify.
			resp.Results[0].Registers = append([][]int(nil), resp.Results[0].Registers...)
			plant(&resp)
			if v := classifySync(j, http.StatusOK, body(t, resp)); v.out != outWrong {
				t.Fatalf("planted wrong %s classified %v", name, v.out)
			}
		})
	}
}

func TestOracleMatchesTheAllocator(t *testing.T) {
	// The reference must be the allocator's own answer, so a check
	// against it is a check against core.Allocate.
	j := solved(t, paperPattern)
	res, err := core.Allocate(paperPattern.Pattern, configOf(paperPattern))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != j.ref.arrays[0].cost {
		t.Fatalf("reference cost %d, allocator %d", j.ref.arrays[0].cost, res.Cost)
	}
}

func TestOracleAgreesOnRefusals(t *testing.T) {
	// Two arrays under a single register: the allocator refuses the
	// loop, so a 422 from the server is a correct answer and a 200 is
	// a wrong one.
	spec := workload.JobSpec{
		Loop:     `for (i = 0; i <= N; i++) { y[i] = x[i] + x[i+1]; }`,
		Bindings: map[string]int{"N": 8},
		AGU:      model.AGUSpec{Registers: 1, ModifyRange: 1},
	}
	j := solved(t, spec)
	if j.ref.err == "" {
		t.Fatal("reference solved a loop with more arrays than registers")
	}
	refusal := body(t, wireJobResp{Error: "too few registers"})
	if v := classifySync(j, http.StatusUnprocessableEntity, refusal); v.out != outOK {
		t.Fatalf("matching 422 classified %v: %s", v.out, v.msg)
	}
	solvedResp := body(t, wireJobResp{Results: []wireAlloc{{Array: "y"}, {Array: "x"}}})
	if v := classifySync(j, http.StatusOK, solvedResp); v.out != outWrong {
		t.Fatalf("answer to a refused job classified %v", v.out)
	}

	// And the other way round: a 422 for a job the reference solves.
	ok := solved(t, paperPattern)
	if v := classifySync(ok, http.StatusUnprocessableEntity, refusal); v.out != outWrong {
		t.Fatalf("422 for a solvable job classified %v", v.out)
	}
}

func TestOutcomeClassification(t *testing.T) {
	j := solved(t, paperPattern)
	for status, want := range map[int]outcome{
		http.StatusTooManyRequests:     outFailed,
		http.StatusServiceUnavailable:  outFailed,
		http.StatusGatewayTimeout:      outFailed,
		http.StatusInternalServerError: outFailed,
		http.StatusBadRequest:          outWrong,
	} {
		if v := classifySync(j, status, []byte(`{"error":"x"}`)); v.out != want {
			t.Errorf("http %d classified %v, want %v", status, v.out, want)
		}
	}
	batch := []job{j, j}
	good := body(t, wireBatchResp{Results: []wireJobResp{answerOf(j.ref), answerOf(j.ref)}})
	if v := classifyBatch(batch, http.StatusOK, good); v.out != outOK {
		t.Fatalf("correct batch classified %v: %s", v.out, v.msg)
	}
	bad := answerOf(j.ref)
	bad.Results[0].Cost++
	wrong := body(t, wireBatchResp{Results: []wireJobResp{answerOf(j.ref), bad}})
	if v := classifyBatch(batch, http.StatusOK, wrong); v.out != outWrong {
		t.Fatalf("batch with a planted wrong job classified %v", v.out)
	}
	if v := classifyTerminal(j, wireStatus{State: "canceled"}, false); v.out != outWrong {
		t.Fatalf("unrequested cancel classified %v", v.out)
	}
	if v := classifyTerminal(j, wireStatus{State: "canceled"}, true); v.out != outOK {
		t.Fatalf("requested cancel classified %v", v.out)
	}
}
