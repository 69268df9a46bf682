package main

// The reference box is shared, and its speed moves: the same binary on the
// same inputs runs up to 1.6x slower for stretches of seconds to minutes (a
// neighbour on the core, by the look of it: a fixed kernel timed back to back
// alternates between two plateaus). No statistic over a run's reps removes
// that, because whole runs fall into one stretch. So every rep is timed next
// to a fixed kernel that touches nothing in the repository, and host times
// are reported at reference speed: measured seconds times the ratio of the
// kernel's reference time to the time it took while the rep ran. The kernel
// is cache-resident integer work, as the codecs do, and page-sized copies
// across memory, as faults do. (A third part, dependent loads across 8 MB,
// was dropped: its time barely moves with the box's speed, so it diluted the
// signal — with it resident's spread over ten seeds was 10 %, without it
// 3 %.) It tracks the box imperfectly — a 1.35x swing in a workload's
// measured time shrinks to about 1.1x — which is the difference between
// spreads inside the bounds and outside them.

// calReference is what the kernel takes on the reference box at full speed.
const calReference = 1.5e-3

const (
	calHashBytes = 64 << 10
	calCopyBytes = 8 << 20
)

var (
	calSink  uint32
	calHash  = make([]byte, calHashBytes)
	calTable = make([]uint32, 1<<12)
	calSrc   = make([]byte, calCopyBytes)
	calDst   = make([]byte, calCopyBytes)
)

// calibrate runs the kernel once and returns the host seconds it took.
func calibrate() float64 {
	t0 := hostNow()
	var h uint32
	for pass := 0; pass < 8; pass++ {
		for i := 0; i+2 < len(calHash); i++ {
			h = (h*40543 ^ uint32(calHash[i]) ^ uint32(calHash[i+1])<<8 ^ uint32(calHash[i+2])<<16) >> 4
			slot := h & (1<<12 - 1)
			calHash[i] = byte(calTable[slot])
			calTable[slot] = uint32(i)
		}
	}
	for off := 0; off+pageSize <= calCopyBytes; off += 4 * pageSize {
		copy(calDst[off:off+pageSize], calSrc[off:off+pageSize])
	}
	calSink += h + uint32(calDst[0])
	return secondsSince(t0)
}
