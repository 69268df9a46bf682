package main

import (
	"fmt"
	"sort"
)

// metricDef names one ledger metric and its unit. The two tables below are
// the single source of the names: BENCHMARK.json lists exactly these (the
// test compares them), and a run that fails to set one, or sets a name that
// is not listed, panics instead of printing a partial ledger.
type metricDef struct{ name, unit string }

// endToEnd is what someone waiting on the simulator sees. All host-side;
// wall_s, alloc_mb and mallocs_k are per rep, the rates are simulated events
// per host second. The times are at reference speed (see calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"refs_per_s", "1/s"},
	{"faults_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"mallocs_k", "kcount"},
}

var codecNames = []string{"lzrw1", "lzss", "bdi", "fpc", "rle", "null"}

// exactCountDefs are the simulation's own counters, summed over every machine
// of a rep. They are simulated, not host, numbers: a change that only makes
// the simulator faster must leave every one of them identical.
var exactCountDefs = []metricDef{
	{"sim.virtual_s", "s"},
	{"vm.refs", "count"}, {"vm.faults", "count"}, {"vm.cold_faults", "count"},
	{"vm.cc_hits", "count"}, {"vm.swap_ins", "count"}, {"vm.remote_ins", "count"},
	{"vm.evictions", "count"}, {"vm.writebacks", "count"},
	{"compress.compressions", "count"}, {"compress.decompressions", "count"},
	{"compress.ratio", "ratio"}, {"compress.incompressible_frac", "ratio"},
	{"core.inserts", "count"}, {"core.hits", "count"}, {"core.misses", "count"},
	{"core.hit_rate", "ratio"}, {"core.clean_writes", "count"},
	{"core.frame_grows", "count"}, {"core.frame_shrinks", "count"},
	{"core.dropped", "count"}, {"core.mid_reclaims", "count"},
	{"swap.pages_out", "count"}, {"swap.pages_in", "count"},
	{"swap.gcs", "count"}, {"swap.gc_bytes_copied", "count"},
	{"disk.reads", "count"}, {"disk.writes", "count"},
	{"disk.bytes_read", "count"}, {"disk.bytes_written", "count"},
	{"disk.seeks", "count"}, {"disk.busy_sim_s", "s"},
	{"netdev.retries", "count"},
	{"cluster.server_ops", "count"}, {"cluster.forwards", "count"},
	{"cluster.tier_hits", "count"}, {"cluster.tier_misses", "count"},
	{"cluster.demotions", "count"},
	{"obs.fault_service_p50_us", "us"}, {"obs.fault_service_p99_us", "us"},
	{"obs.fault_service_p999_us", "us"},
	{"machine.speedup_geo", "ratio"}, {"machine.paper_err_pct", "%"},
}

// tracedDefs come from the traced reps' spans (host): a span's self time is
// its duration minus the part its child spans cover.
var tracedDefs = []metricDef{
	{"vm.ref_path_self_s", "s"},
	{"machine.new_self_s", "s"},
	{"machine.pagein_self_s", "s"}, {"machine.pageout_self_s", "s"},
	{"machine.pagein_p50_us", "us"}, {"machine.pagein_p99_us", "us"},
	{"machine.pageout_p50_us", "us"}, {"machine.pageout_p99_us", "us"},
	{"compress.compress_self_s", "s"}, {"compress.decompress_self_s", "s"},
	{"trace.overhead_pct", "%"},
}

// perLayer is everything a traced run reports: the exact counts, the traced
// pass and the isolated layer drivers (host).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := append(append([]metricDef(nil), exactCountDefs...), tracedDefs...)
	for _, c := range codecNames {
		defs = append(defs,
			metricDef{"compress." + c + ".compress_mbps", "MB/s"},
			metricDef{"compress." + c + ".decompress_mbps", "MB/s"})
	}
	for _, n := range []string{
		"core.insert_ns", "core.fault_ns", "core.clean_ns_per_page", "core.drop_ns",
		"vm.touch_hit_ns", "vm.readword_ns", "vm.writeword_ns", "vm.fault_nullpager_ns",
		"sim.clock_advance_ns", "policy.allocframe_ns",
		"swap.direct_read_ns", "swap.direct_write_ns",
		"swap.clustered_read_ns", "swap.clustered_write_ns",
		"swap.lfs_read_ns", "swap.lfs_write_ns",
		"fs.rawread_ns", "fs.rawwrite_ns",
		"disk.read_ns", "disk.write_ns", "disk.write_async_ns",
		"netdev.read_ns", "netdev.write_ns",
		"sim.clock_advance_attached_ns", "sim.kernel_handoff_ns", "sim.kernel_schedule_ns",
		"cluster.server_admit_ns",
		"obs.emit_enabled_ns", "obs.emit_disabled_ns", "obs.observe_ns",
	} {
		defs = append(defs, metricDef{n, "ns"})
	}
	return append(defs,
		metricDef{"swap.clustered_gc_ms", "ms"},
		metricDef{"swap.recover_clustered_ms", "ms"}, metricDef{"swap.recover_lfs_ms", "ms"},
		metricDef{"obs.export_jsonl_mbps", "MB/s"},
		metricDef{"machine.new_ms", "ms"}, metricDef{"machine.new_alloc_mb", "MB"},
		metricDef{"machine.snapshot_ms", "ms"}, metricDef{"machine.restore_ms", "ms"},
		metricDef{"machine.snapshot_kb", "KB"},
		metricDef{"snap.encode_mbps", "MB/s"}, metricDef{"snap.decode_mbps", "MB/s"},
		metricDef{"runtime.peak_sys_mb", "MB"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.host_speed_pct", "%"},
	)
}

// metricValue is one reported number in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects values by name during a run.
type metrics map[string]float64

// report pairs the collected values with defs. A value without a definition
// or a definition without a value is a bug in the benchmark, not a property
// of the run, so it panics.
func (m metrics) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			panic(fmt.Sprintf("bench: metric %s was never set", d.name))
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		for _, name := range sortedKeys(m) {
			if _, ok := out[name]; !ok {
				panic(fmt.Sprintf("bench: metric %s is not in the ledger's tables", name))
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value (mean of the two middle values for an even
// count); it panics on an empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}
