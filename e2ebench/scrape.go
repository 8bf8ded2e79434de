// Scrapes of the binaries' existing observability surfaces: /v1/stats
// and /metrics for counters and histograms, /debug/requests for the
// retained request traces. Counters are read before and after a phase
// and differenced.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"dspaddr/internal/obs"
)

// nodeStats is the part of rcaserve's /v1/stats the benchmark reads.
type nodeStats struct {
	Jobs      uint64 `json:"jobs"`
	CacheHits uint64 `json:"cacheHits"`
	Deduped   uint64 `json:"deduped"`
	Sheds     uint64 `json:"sheds"`
	AsyncJobs struct {
		Rejected uint64 `json:"rejected"`
	} `json:"asyncJobs"`
	WAL *struct {
		Fsyncs uint64 `json:"fsyncs"`
	} `json:"wal"`
}

func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: http %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getMetrics(ctx context.Context, c *http.Client, url string) (map[string]*obs.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: http %d", url, resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// getTraces fetches the newest limit retained request traces.
func getTraces(ctx context.Context, c *http.Client, url string, limit int) ([]*obs.TraceSnapshot, error) {
	var out struct {
		Traces []*obs.TraceSnapshot `json:"traces"`
	}
	err := getJSON(ctx, c, fmt.Sprintf("%s/debug/requests?limit=%d", url, limit), &out)
	return out.Traces, err
}

// snapshot is the fleet's counters at one instant.
type snapshot struct {
	nodes   []nodeStats
	metrics []map[string]*obs.Family // per node
	gateway map[string]*obs.Family   // nil without a gateway
	usage   procSnapshot
}

// counter sums a family's samples whose labels include want.
func counter(fams map[string]*obs.Family, name string, want map[string]string) float64 {
	f := fams[name]
	if f == nil {
		return 0
	}
	var total float64
next:
	for _, s := range f.Samples {
		for k, v := range want {
			if s.Labels[k] != v {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// buckets returns a histogram family's cumulative bucket counts by
// upper bound, summed over label sets.
func buckets(fams map[string]*obs.Family, name string) map[float64]float64 {
	out := map[float64]float64{}
	f := fams[name]
	if f == nil {
		return out
	}
	for _, s := range f.Samples {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			le = math.Inf(1)
		}
		out[le] += s.Value
	}
	return out
}

// histQuantile estimates quantile q of the observations made between
// two cumulative bucket snapshots, interpolating linearly inside the
// bucket that holds it. The result is in the histogram's unit.
func histQuantile(before, after map[float64]float64, q float64) (value float64, count float64) {
	les := make([]float64, 0, len(after))
	for le := range after {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0, 0
	}
	total := after[les[len(les)-1]] - before[les[len(les)-1]]
	if total <= 0 {
		return 0, 0
	}
	target := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := after[le] - before[le]
		if cum >= target {
			if math.IsInf(le, 1) {
				return prevLe, total
			}
			if cum == prevCum {
				return le, total
			}
			return prevLe + (le-prevLe)*(target-prevCum)/(cum-prevCum), total
		}
		prevLe, prevCum = le, cum
	}
	return prevLe, total
}
