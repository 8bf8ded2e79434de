// Results: metrics with their sample counts, the machine stamp every
// result file carries, the one-row-per-workload table, and the compare
// mode, which refuses to compare results taken on different machines.

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number; n is its sample count (ops, calls or
// runs behind it). An info metric is printed and stored in the result
// file but left out of the JSON result line (see METRICS.md).
type metric struct {
	name, unit string
	value      float64
	n          int
	info       bool
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// stamp identifies the machine and the code a result was taken on.
type stamp struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two stamps allow comparing results: all
// but the commit must agree.
func (s stamp) sameMachine(o stamp) bool {
	return s.NProc == o.NProc && s.CPUModel == o.CPUModel && s.GOMAXPROCS == o.GOMAXPROCS && s.GoVersion == o.GoVersion
}

func machineStamp(root string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the tree under test: its git commit, with "-dirty"
// when the working tree has changes, or "unknown" outside a git
// checkout.
func commitOf(root string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what one run writes to disk.
type resultFile struct {
	Stamp     stamp                 `json:"stamp"`
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]fileMetric `json:"metrics"`
	Rates     map[string]float64    `json:"rates"`
	Wrong     []string              `json:"wrong,omitempty"`
}

type fileMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func writeResult(path string, rf *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRow writes one workload's metrics as one table row.
func printRow(w io.Writer, workload string, ms []metric) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", workload)
	for _, m := range ms {
		fmt.Fprintf(&b, " | %s=%.4g %s n=%d", m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintln(w, b.String())
}

// compare prints the metric-by-metric change from result a to b, or
// refuses when the two were taken on different machines.
func compare(w io.Writer, pathA, pathB string) error {
	var a, b resultFile
	for _, x := range []struct {
		path string
		rf   *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, x.rf); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if !a.Stamp.sameMachine(b.Stamp) {
		return fmt.Errorf("refusing to compare results from different machines: %+v vs %+v", a.Stamp, b.Stamp)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare different runs: %s/%ds/trace=%v vs %s/%ds/trace=%v",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %s -> %s\n", a.Workload, a.Stamp.Commit, b.Stamp.Commit)
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "%-32s %12.4g %12.4g %-6s %s\n", n, ma.Value, mb.Value, ma.Unit, change)
	}
	return nil
}
