package exp

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"compcache/internal/model"
)

// Fig1Result holds one panel of Figure 1: a speedup surface over the
// (compression ratio, relative compression speed) plane plus the region map
// the paper shades.
type Fig1Result struct {
	Title  string
	Ratios []float64 // fraction of bytes remaining after compression
	Speeds []float64 // compression speed relative to I/O speed
	Grid   [][]float64
}

// fig1a models transferring compressed pages to and from the backing store
// (the paper's Figure 1(a)).
func fig1a(ctx context.Context, _ Options) (Result, error) {
	return fig1(ctx, "Figure 1(a): bandwidth speedup, compressed transfers to backing store",
		model.Default().BandwidthSpeedup)
}

// fig1b models keeping compressed pages in memory for the cyclic workload
// with W = 2M (the paper's Figure 1(b)).
func fig1b(ctx context.Context, _ Options) (Result, error) {
	return fig1(ctx, "Figure 1(b): mean memory-reference-time speedup, compressed pages kept in memory (W = 2M)",
		model.Default().ReferenceSpeedup)
}

// fig1 evaluates one panel's speedup surface over the (ratio, speed) plane.
// It simulates nothing, but a done ctx stops it as it stops every
// experiment.
func fig1(ctx context.Context, title string, speedup func(r, s float64) float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Fig1Result{
		Title:  title,
		Ratios: model.Linspace(0.05, 1.0, 20),
		Speeds: model.Logspace(0.25, 32, 15),
	}
	r.Grid = model.Grid(speedup, r.Ratios, r.Speeds)
	return r, nil
}

// Regions classifies every grid point the way the paper's figure is shaded
// and reports the fraction of the plane in each region.
func (f *Fig1Result) Regions() map[string]float64 {
	counts := map[string]int{}
	total := 0
	for _, row := range f.Grid {
		for _, v := range row {
			counts[model.Region(v)]++
			total++
		}
	}
	out := map[string]float64{}
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		out[k] = float64(counts[k]) / float64(total)
	}
	return out
}

// Table renders the surface as a numeric grid (rows: compression ratio, best
// at top; columns: compression speed, slowest at left) with the paper's
// three-shade region map ('#' >6x, '+' 1-6x, '.' slowdown) as the note.
func (f *Fig1Result) Table() *Table {
	t := &Table{Title: f.Title}
	t.Header = []string{"ratio\\speed"}
	for _, s := range f.Speeds {
		t.Header = append(t.Header, fmt.Sprintf("%.2g", s))
	}
	for i, r := range f.Ratios {
		row := []string{fmt.Sprintf("%.2f", r)}
		for j := range f.Speeds {
			row = append(row, fmt.Sprintf("%.2f", f.Grid[i][j]))
		}
		t.AddRow(row...)
	}
	mapStr := "region map ('#' >6x, '+' 1-6x, '.' <1x); top row = best compression:\n"
	for i := range f.Ratios {
		for j := range f.Speeds {
			switch model.Region(f.Grid[i][j]) {
			case ">6x":
				mapStr += "#"
			case "1-6x":
				mapStr += "+"
			default:
				mapStr += "."
			}
		}
		mapStr += "\n"
	}
	t.Note = mapStr
	return t
}

// Tables implements Result.
func (f *Fig1Result) Tables() []*Table { return []*Table{f.Table()} }
