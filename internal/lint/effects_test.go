package lint

import (
	"bytes"
	"fmt"
	"go/types"
	"strings"
	"sync"
	"testing"

	"compcache/internal/compress"
)

// fxEffects resolves the scan of one function of the unit fixture
// (testdata/src/effects).
func fxEffects(t *testing.T, name string) *FnEffects {
	t.Helper()
	mod := fixtureModule(t)
	fe := mod.Effects().Of(findFn(t, mod, "effects", name))
	if fe == nil {
		t.Fatalf("no scan for %s", name)
	}
	return fe
}

// TestEffectsPerAllocationKind pins the classification of every
// allocation kind the scan recognizes, one fixture function each, and the
// one parameter flow among them (AppendParam returns its dst).
func TestEffectsPerAllocationKind(t *testing.T) {
	cases := []struct {
		fn       string
		class    SiteClass // class of the one site
		whatSub  string    // substring of its What ("" = no sites)
		numFlows int
	}{
		{"CompositeLit", SiteSteady, "literal", 0},
		{"AppendFresh", SiteSteady, "append to out", 0},
		{"AppendParam", SiteWarm, "append to dst", 1},
		{"StringConv", SiteSteady, "conversion", 0},
		{"Boxing", SiteSteady, "boxed into interface argument", 0},
		{"Closure", SiteSteady, "escaping closure", 0},
		{"MapWrite", SiteWarm, "map write to m", 0},
		{"Clean", 0, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			fe := fxEffects(t, tc.fn)
			if len(fe.Flows) != tc.numFlows {
				t.Errorf("%s has %d parameter flows, want %d", tc.fn, len(fe.Flows), tc.numFlows)
			}
			for _, fl := range fe.Flows {
				if fl.Store || fl.Param.Name() != "dst" {
					t.Errorf("%s flow = %+v, want a return of dst", tc.fn, fl)
				}
			}
			if tc.whatSub == "" {
				if len(fe.Sites) != 0 {
					t.Fatalf("%s has %d sites, want none", tc.fn, len(fe.Sites))
				}
				return
			}
			if len(fe.Sites) != 1 {
				t.Fatalf("%s has %d sites, want 1", tc.fn, len(fe.Sites))
			}
			if site := fe.Sites[0]; site.Class != tc.class || !strings.Contains(site.What, tc.whatSub) {
				t.Errorf("%s site = class %d %q, want class %d mentioning %q", tc.fn, site.Class, site.What, tc.class, tc.whatSub)
			}
		})
	}
}

// cyclePair resolves the mutually recursive Ping↔Pong of the hotalloc
// codec fixture and the codec root that enters the cycle.
func cyclePair(t *testing.T) (mod *Module, root, ping, pong *types.Func) {
	t.Helper()
	mod = fixtureModule(t)
	for _, n := range mod.Graph.order {
		if n.Fn.FullName() == "(compcache/hotalloc/internal/compress.Cycle).Compress" {
			root = n.Fn
		}
	}
	if root == nil {
		t.Fatal("Cycle.Compress not found in the hotalloc fixture")
	}
	const pkg = "hotalloc/internal/compress"
	return mod, root, findFn(t, mod, pkg, "Ping"), findFn(t, mod, pkg, "Pong")
}

// TestEffectsFixedPointConverges: the hot-chain walk over mutual
// recursion must terminate, put both members of the cycle on a chain from
// the root, and leave the steady site where it is — in Pong, not
// smeared onto Ping.
func TestEffectsFixedPointConverges(t *testing.T) {
	mod, root, ping, pong := cyclePair(t)
	facts := mod.Effects()
	chains := facts.HotChains()
	if got, want := chainString(chains[ping]), chainString([]*types.Func{root, ping}); got != want {
		t.Errorf("hot chain to Ping = %s, want %s", got, want)
	}
	if got, want := chainString(chains[pong]), chainString([]*types.Func{root, ping, pong}); got != want {
		t.Errorf("hot chain to Pong = %s, want %s", got, want)
	}
	if sites := facts.Of(ping).Sites; len(sites) != 0 {
		t.Errorf("Ping has %d sites of its own; the fixture should only reach Pong's", len(sites))
	}
	if sites := facts.Of(pong).Sites; len(sites) == 0 || sites[0].Class != SiteSteady {
		t.Errorf("Pong's make is not a steady site: %+v", sites)
	}
}

// TestCallGraphCycleTerminates: Reaches and Path over a mutually
// recursive pair must terminate and produce the deterministic chain.
func TestCallGraphCycleTerminates(t *testing.T) {
	mod, _, ping, pong := cyclePair(t)

	reach := mod.Graph.Reaches(func(fn *types.Func) bool { return fn == pong })
	if !reach[ping] {
		t.Error("Reaches lost Ping → Pong inside the cycle")
	}
	chain := mod.Graph.Path(ping, func(fn *types.Func) bool { return fn == pong })
	if len(chain) != 2 || chain[0] != ping || chain[1] != pong {
		t.Errorf("Path(Ping → Pong) = %s, want the direct 2-hop chain", chainString(chain))
	}
	// Determinism: the same query answers identically on repeat.
	for i := 0; i < 3; i++ {
		again := mod.Graph.Path(ping, func(fn *types.Func) bool { return fn == pong })
		if len(again) != len(chain) || again[0] != chain[0] || again[1] != chain[1] {
			t.Fatalf("Path is not deterministic: %s vs %s", chainString(again), chainString(chain))
		}
	}
}

// realModule loads the actual compcache module once for the whole test
// binary (shared by the codec cross-check and the clean-tree test).
var (
	realOnce sync.Once
	realMod  *Module
	realErr  error
)

func realModule(t *testing.T) *Module {
	t.Helper()
	realOnce.Do(func() { realMod, realErr = LoadModule(".") })
	if realErr != nil {
		t.Fatalf("LoadModule(.): %v", realErr)
	}
	return realMod
}

// findCodecMethod resolves the concrete Compress/Decompress method of a
// registered codec by receiver type name.
func findCodecMethod(t *testing.T, mod *Module, recv, name string) *types.Func {
	t.Helper()
	for _, n := range mod.Graph.order {
		if n.Fn.Name() != name || n.Pkg == nil || !pathHasSuffix(n.Pkg.Path, "internal/compress") {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Name() == recv {
			return n.Fn
		}
	}
	t.Fatalf("codec method %s.%s not found in internal/compress", recv, name)
	return nil
}

// TestCodecStaticDynamicAllocAgreement cross-checks the two proofs for
// every registered codec: the scan must find no steady-state site on any
// function the hot path reaches from the concrete Compress/Decompress
// (which is what keeps hotalloc quiet), and testing.AllocsPerRun must
// dynamically measure zero once pools are warm. A disagreement in
// either direction is a soundness or precision bug worth failing on.
func TestCodecStaticDynamicAllocAgreement(t *testing.T) {
	mod := realModule(t)
	facts := mod.Effects()
	const pageSize = 4096
	page := bytes.Repeat([]byte("static dynamic agreement "), pageSize/25+1)[:pageSize]

	for _, name := range compress.Names() {
		c, err := compress.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		recv := strings.TrimPrefix(strings.TrimPrefix(fmt.Sprintf("%T", c), "*"), "compress.")
		t.Run(name, func(t *testing.T) {
			// Static half: both contract methods are recognized hot roots with
			// no steady site on any function the hot path reaches from them.
			for _, meth := range []string{"Compress", "Decompress"} {
				fn := findCodecMethod(t, mod, recv, meth)
				if !codecContract(fn) {
					t.Errorf("%s.%s does not match the codec contract shape", recv, meth)
				}
				if _, hot := facts.HotChains()[fn]; !hot {
					t.Errorf("%s.%s is not on a hot chain", recv, meth)
				}
				reached := mod.Graph.Walk([]*types.Func{fn}, facts.hotEdge)
				for _, n := range mod.Graph.order {
					if _, ok := reached[n.Fn]; !ok {
						continue
					}
					for _, site := range facts.Of(n.Fn).Sites {
						if site.Class == SiteSteady {
							t.Errorf("%s.%s statically allocates in steady state (%s: %s); hotalloc and AllocsPerRun disagree",
								recv, meth, chainString(chainTo(reached, n.Fn)), site.What)
						}
					}
				}
			}
			// Dynamic half, mirroring TestCodecZeroAllocs' warm-up.
			comp := make([]byte, 0, c.MaxCompressedSize(pageSize))
			plain := make([]byte, 0, pageSize)
			comp = c.Compress(comp[:0], page)
			if n := testing.AllocsPerRun(50, func() {
				comp = c.Compress(comp[:0], page)
			}); n != 0 {
				t.Errorf("Compress dynamically allocates %v/run; the static proof says zero", n)
			}
			if n := testing.AllocsPerRun(50, func() {
				out, err := c.Decompress(plain[:0], comp)
				if err != nil {
					t.Fatal(err)
				}
				plain = out[:0]
			}); n != 0 {
				t.Errorf("Decompress dynamically allocates %v/run; the static proof says zero", n)
			}
		})
	}
}

// TestHotAllocTreeClean locks the tentpole invariant: the real tree has
// zero unignored findings under the full twelve-analyzer suite —
// in particular no steady-state allocation on the paging hot path.
// (The full suite must run so ignore directives for the other
// analyzers resolve; a partial suite would misread them as unknown.)
func TestHotAllocTreeClean(t *testing.T) {
	mod := realModule(t)
	for _, d := range Run(mod.Pkgs, All()) {
		t.Errorf("unexpected finding on the real tree: %v", d)
	}
}

// BenchmarkLintModule measures full-module cclint wall time: load,
// type-check, call graph, allocation-site scan, and all twelve analyzers — the
// pass the CI wall-time budget gate times against .cclint-lint-budget.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := mod.Select(".", []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(pkgs, All()); len(diags) > 0 {
			b.Fatalf("tree not clean under benchmark: %d findings", len(diags))
		}
	}
}
