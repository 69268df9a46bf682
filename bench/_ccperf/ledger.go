package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
)

// ledger is one BENCH_<commit>.json: every workload's untraced and traced
// result, with the machine they were taken on. Host numbers mean nothing
// away from that label.
type ledger struct {
	Commit  string                `json:"commit"`
	Machine string                `json:"machine"`
	Runs    map[string]*ledgerRun `json:"runs"`
}

type ledgerRun struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// mergeLedger adds one run's result to the ledger file, creating it if need
// be.
func mergeLedger(path, commit, workload string, traced bool, res result) error {
	l, err := readLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Commit, l.Machine = commit, hostDescription()
	if l.Runs == nil {
		l.Runs = map[string]*ledgerRun{}
	}
	run := l.Runs[workload]
	if run == nil {
		run = &ledgerRun{}
		l.Runs[workload] = run
	}
	if traced {
		run.PerLayer = &res
	} else {
		run.EndToEnd = &res
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostDescription labels the box: CPU model and count, platform, toolchain.
func hostDescription() string {
	model := "unknown cpu"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%d x %s, %s/%s, %s", runtime.NumCPU(), model, runtime.GOOS, runtime.GOARCH, runtime.Version())
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareLedgers prints, for every workload and end-to-end metric, both
// values, the relative change and the bound, and returns how many metrics
// got worse by more than their bound. Failed legs on either side count as a
// breach too: a faster wrong answer is not a result.
func compareLedgers(w io.Writer, benchPath, aPath, bPath string) (breaches int, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return 0, err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return 0, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readLedger(aPath)
	if err != nil {
		return 0, err
	}
	b, err := readLedger(bPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  (%s)\nb: %s  commit %s  (%s)\n\n", aPath, a.Commit, a.Machine, bPath, b.Commit, b.Machine)
	fmt.Fprintf(w, "%-9s %-13s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, wl := range bench.Workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%-9s missing from a ledger\n", wl.Name)
			breaches++
			continue
		}
		for _, side := range []*result{ra.EndToEnd, rb.EndToEnd, ra.PerLayer, rb.PerLayer} {
			if side != nil && !side.Correct {
				fmt.Fprintf(w, "%-9s %d of %d legs failed\n", wl.Name, side.Failed, side.Attempted)
				breaches++
			}
		}
		for _, md := range bench.EndToEnd {
			va, vb := ra.EndToEnd.Metrics[md.Name].Value, rb.EndToEnd.Metrics[md.Name].Value
			change := (vb - va) / va
			worse := change
			if md.Better == "higher" {
				worse = -change
			}
			verdict := ""
			if worse > md.Bound {
				verdict = "  WORSE"
				breaches++
			}
			fmt.Fprintf(w, "%-9s %-13s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				wl.Name, md.Name, va, vb, 100*change, 100*md.Bound, verdict)
		}
		if ra.PerLayer != nil && rb.PerLayer != nil {
			differ := 0
			for _, d := range exactCountDefs {
				if ra.PerLayer.Metrics[d.name].Value != rb.PerLayer.Metrics[d.name].Value {
					differ++
					fmt.Fprintf(w, "%-9s %s: %v vs %v\n", wl.Name, d.name,
						ra.PerLayer.Metrics[d.name].Value, rb.PerLayer.Metrics[d.name].Value)
				}
			}
			fmt.Fprintf(w, "%-9s simulated counts that differ: %d\n", wl.Name, differ)
		}
	}
	fmt.Fprintf(w, "\n%d breach(es)\n", breaches)
	return breaches, nil
}
