package exp

import (
	"context"
	"fmt"
	"strings"
)

// Options is the one experiment-sizing knob set every registered experiment
// accepts; its zero value is the small scale, one worker per core.
type Options struct {
	// Scale selects Small or Paper sizing (see Scale).
	Scale Scale

	// Parallelism caps concurrent simulated machines (0 = one per core,
	// 1 = serial). Results are byte-identical at any value.
	Parallelism int
}

// sizing maps the scale to the shared memory/working-set convention the
// ablation and extension sweeps use.
func (o Options) sizing() (memMB int, pages int32) {
	if o.Scale == Paper {
		return 6, 4096
	}
	return 1, 768
}

// Result is what a registered experiment produces: one or more renderable
// tables. Concrete results (Fig3Result, Table1Result, ...) expose their
// richer structure too; Tables is the common denominator ccbench renders.
type Result interface {
	Tables() []*Table
}

// Tables makes a bare Table usable as a Result (the ablation and extension
// experiments each produce exactly one).
func (t *Table) Tables() []*Table { return []*Table{t} }

// Experiment is one entry of the registry.
type Experiment struct {
	// Name is the registry key ("table1", "ablation/codec", ...). Group
	// prefixes before the slash ("ablation/", "ext/") are what the group
	// names in Resolve expand to.
	Name string

	// Run executes the experiment. It derives all sizing from o, stays
	// deterministic for a fixed Scale, and runs no simulation once
	// ctx is done: its error then wraps ctx.Err().
	Run func(ctx context.Context, o Options) (Result, error)
}

// registry lists every experiment once, sorted by name.
var registry = []Experiment{
	{"ablation/bias", ablationBias},
	{"ablation/codec", ablationCodec},
	{"ablation/fixed-size", ablationFixedSize},
	{"ablation/partial-io", ablationPartialIO},
	{"ablation/spanning", ablationSpanning},
	{"ablation/threshold", ablationThreshold},
	{"ext/backing-store", backingStoreSweep},
	{"ext/codec-sweep", codecSweep},
	{"ext/compression-speed", compressionSpeedSweep},
	{"ext/crash-sweep", crashSweep},
	{"ext/file-cache", compressedFileCache},
	{"ext/fleet-sweep", fleetSweep},
	{"ext/lfs", lfsComparison},
	{"ext/mobile", mobileScenario},
	{"ext/model-validation", modelValidation},
	{"ext/multiprogramming", multiprogramming},
	{"ext/pinning", advisoryPinning},
	{"faults", faultSweep},
	{"fig1a", fig1a},
	{"fig1b", fig1b},
	{"fig3", Fig3},
	{"table1", table1},
}

// Names returns every registered experiment name, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Experiments returns every registered experiment in name order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup finds one experiment by exact name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// groups maps a group name to the registry prefix it expands to.
var groups = map[string]string{
	"all":        "",
	"ablations":  "ablation/",
	"extensions": "ext/",
}

// Resolve expands a list of names — exact experiment names, group names
// ("ablations", "extensions"), or "all" — into experiments in name order,
// deduplicated. Unknown names are an error listing the valid ones.
func Resolve(names []string) ([]Experiment, error) {
	picked := make([]bool, len(registry))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		prefix, group := groups[name]
		found := false
		for i, e := range registry {
			if e.Name == name || group && strings.HasPrefix(e.Name, prefix) {
				picked[i], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("exp: unknown experiment %q (valid: all, ablations, extensions, %s)",
				name, strings.Join(Names(), ", "))
		}
	}
	var out []Experiment
	for i, e := range registry {
		if picked[i] {
			out = append(out, e)
		}
	}
	return out, nil
}
