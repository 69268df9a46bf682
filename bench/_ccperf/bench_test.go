package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON is the checked-in benchmark definition, two directories up.
const benchmarkJSON = "../../BENCHMARK.json"

type benchmarkDef struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json names exactly the workloads
// and metrics, with the units, that the program's tables define.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	def := loadBenchmarkDef(t)
	if !reflect.DeepEqual(def.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", def.Paths)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want {%s %s}", i, def.Workloads[i], w.name, w.why)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d is %v, want %v", what, i, got[i], d)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}

// traceLine is one record of trace_<workload>.jsonl.
type traceLine struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Leg     *int   `json:"leg"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// readTrace returns the spans of a trace file and whether the file says it
// was cut short.
func readTrace(t *testing.T, path string) (spans []traceLine, truncated bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		if l.Name == "" {
			truncated = true // the trailing record
			continue
		}
		spans = append(spans, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans, truncated
}

// TestSmokeLedger runs every workload untraced and traced, and with the
// traced pass the layer drivers, at smoke scale.
func TestSmokeLedger(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			dir := t.TempDir()
			var log bytes.Buffer
			opts := runOpts{def: def, seed: goldenSeed, seconds: 0.1, sc: smoke, outDir: dir}
			plain, plainDigests, err := runWorkload(&log, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.trace = true
			traced, tracedDigests, err := runWorkload(&log, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || !traced.Correct {
				t.Fatalf("legs failed:\n%s", log.String())
			}

			// Exactly the listed names, each with its unit.
			for _, c := range []struct {
				res  result
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics reported, %d defined", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if got, ok := c.res.Metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, got, ok, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, plain.Metrics[d.name].Value)
				}
			}

			// Two runs, one of them traced, digest alike.
			if !reflect.DeepEqual(plainDigests, tracedDigests) {
				t.Errorf("digests differ between runs:\n%v\n%v", plainDigests, tracedDigests)
			}

			if def.name == "resident" {
				m := traced.Metrics
				if m["compress.compressions"].Value != 0 || m["vm.faults"].Value != m["vm.cold_faults"].Value {
					t.Errorf("resident paged: %v compressions, %v faults, %v cold",
						m["compress.compressions"].Value, m["vm.faults"].Value, m["vm.cold_faults"].Value)
				}
			}

			// Spans nest: a child lies inside its parent, on the same leg.
			spans, truncated := readTrace(t, filepath.Join(dir, "trace_"+def.name+".jsonl"))
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}
			byKind := map[string]int{}
			for i, s := range spans {
				byKind[s.Name]++
				if s.ID != i || s.Leg == nil || *s.Leg < 0 || s.EndNs < s.StartNs {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
				if s.Parent < 0 {
					if s.Name != "leg" {
						t.Errorf("span %d (%s) has no parent", i, s.Name)
					}
					continue
				}
				p := spans[s.Parent]
				if s.Parent >= i || *p.Leg != *s.Leg || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
					t.Errorf("span %+v does not nest in its parent %+v", s, p)
				}
			}
			if !truncated && byKind["leg"] != len(def.legs(smoke, goldenSeed)) {
				t.Errorf("%d leg spans for %d legs", byKind["leg"], len(def.legs(smoke, goldenSeed)))
			}
			if def.name != "resident" && (byKind["machine.pagein"] == 0 || byKind["machine.pageout"] == 0) {
				t.Errorf("no pager spans: %v", byKind)
			}
		})
	}
}

// TestSelfTimes: self time is the span minus what its children cover, also
// when children overlap, as fleet members' pager spans do.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{kind: spanLeg, parent: -1, start: 0, end: 100},
		{kind: spanPageIn, parent: 0, start: 10, end: 40},
		{kind: spanDecompress, parent: 1, start: 20, end: 30},
		{kind: spanPageOut, parent: 0, start: 30, end: 60}, // overlaps the PageIn by 10
	}}
	got := tr.analyze().self
	want := [spanKinds]float64{spanLeg: 50e-9, spanPageIn: 20e-9, spanDecompress: 10e-9, spanPageOut: 30e-9}
	if got != want {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestCompare: -compare passes a ledger against itself and flags a metric
// that got worse by more than its bound, in the direction that is worse.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		base.Metrics[d.name] = metricValue{Value: 100, Unit: d.unit}
	}
	write := func(name string, mutate func(map[string]metricValue)) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			res := base
			res.Metrics = map[string]metricValue{}
			for k, v := range base.Metrics {
				res.Metrics[k] = v
			}
			if w.name == "stores" {
				mutate(res.Metrics)
			}
			if err := mergeLedger(path, name, w.name, false, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", func(map[string]metricValue) {})
	better := write("better.json", func(m map[string]metricValue) {
		m["wall_s"] = metricValue{Value: 70, Unit: "s"}
		m["refs_per_s"] = metricValue{Value: 140, Unit: "1/s"}
	})
	worse := write("worse.json", func(m map[string]metricValue) {
		m["wall_s"] = metricValue{Value: 150, Unit: "s"}
		m["refs_per_s"] = metricValue{Value: 60, Unit: "1/s"}
	})
	var log bytes.Buffer
	for _, c := range []struct {
		b    string
		want int
	}{{a, 0}, {better, 0}, {worse, 2}} {
		got, err := compareLedgers(&log, benchmarkJSON, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: %d breaches, want %d\n%s", filepath.Base(c.b), got, c.want, log.String())
		}
	}
}
