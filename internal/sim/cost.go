package sim

import (
	"fmt"
	"time"
)

// CostModel holds the CPU-side costs of the simulated machine. The defaults
// approximate the DECstation 5000/200 used in the paper (a ~25-MHz R3000,
// about 20 integer MIPS).
//
// All bandwidth figures are in bytes per second of virtual time. The
// compression and decompression bandwidths are defaults only: when a real
// codec is timed, the machine charges bytes/bandwidth for the bytes actually
// processed, preserving the paper's property that decompression is roughly
// twice as fast as compression for LZRW1.
type CostModel struct {
	// MemRef is the cost of one simulated memory reference that hits in an
	// uncompressed resident page (a handful of instructions in the simulated
	// application plus the reference itself).
	MemRef Duration

	// FaultOverhead is the software overhead of taking a page fault,
	// excluding any compression or I/O work (trap handling, page-table
	// walks, list manipulation).
	FaultOverhead Duration

	// PageCopy is the cost of copying one full page (e.g. moving a page
	// between a transfer buffer and its frame).
	PageCopy Duration

	// CompressBW is the throughput of software compression, in bytes of
	// *input* consumed per second.
	CompressBW float64

	// DecompressBW is the throughput of software decompression, in bytes of
	// *output* produced per second. For LZRW1 this is roughly twice
	// CompressBW, the ratio Figure 1 assumes.
	DecompressBW float64
}

// DefaultCostModel returns costs approximating the paper's DECstation
// 5000/200. LZRW1 on that machine ran at roughly 1 MB/s compressing and
// 2 MB/s decompressing; a simulated memory reference is charged 250ns —
// a handful of instructions on the ~20-MIPS R3000 — so CPU-bound phases of
// the applications are weighted the way the 1993 machine weighted them.
func DefaultCostModel() CostModel {
	return CostModel{
		MemRef:        250 * time.Nanosecond,
		FaultOverhead: 500 * time.Microsecond,
		PageCopy:      200 * time.Microsecond,
		CompressBW:    1.0e6,
		DecompressBW:  2.0e6,
	}
}

// Validate reports whether every charge the model makes is a non-negative
// Duration: a negative cost would run a clock backward (see Clock.Advance),
// and so would a bandwidth that is negative, NaN or so small that a page's
// cost overflows. A zero bandwidth charges nothing.
func (m CostModel) Validate() error {
	if m.MemRef < 0 || m.FaultOverhead < 0 || m.PageCopy < 0 {
		return fmt.Errorf("sim: negative cost parameter")
	}
	for _, bw := range []float64{m.CompressBW, m.DecompressBW} {
		if bw != 0 && !(bw >= 1) {
			return fmt.Errorf("sim: bandwidth %g bytes/s is neither 0 nor at least 1", bw)
		}
	}
	return nil
}

// CompressCost reports the virtual time to compress n input bytes.
func (m CostModel) CompressCost(n int) Duration {
	return bwCost(n, m.CompressBW)
}

// DecompressCost reports the virtual time to decompress to n output bytes.
func (m CostModel) DecompressCost(n int) Duration {
	return bwCost(n, m.DecompressBW)
}

func bwCost(n int, bw float64) Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return Duration(float64(n) / bw * float64(time.Second))
}
