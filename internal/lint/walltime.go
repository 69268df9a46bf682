package lint

// Walltime forbids reading the host's state. Every simulated cost must
// come from the virtual clock (internal/sim.Clock): the paper's Table 1
// and Figure 3 numbers are virtual-time artifacts, so one stray
// time.Now() quietly couples results to the host machine, the Go
// scheduler and the garbage collector — and an environment variable or a
// core count read mid-run does the same to any other number. The analyzer
// runs over the whole module, command front-ends included.
//
// The banned functions are the source table's walltime rows (sources.go):
// the clock, the environment and the scheduler facts, called or handed
// around as values.
type Walltime struct{}

// Name implements Analyzer.
func (Walltime) Name() string { return "walltime" }

// Doc implements Analyzer.
func (Walltime) Doc() string {
	return "forbid reads of host state: clock, environment, scheduler facts (time.Now/Sleep, os.Getenv, runtime.NumCPU, ...); the virtual clock is the only time source"
}

// Check implements Analyzer.
func (w Walltime) Check(pkg *Package) []Diagnostic { return bannedRefs(pkg, w.Name()) }
