package swap

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// hostileKeys are page keys no run produces but forged media and forged
// snapshots can name: the corners of the key space, and a page far past the
// end of a small segment. Every recovery and restore corpus carries them.
var hostileKeys = []PageKey{
	{Seg: math.MaxInt32, Page: math.MaxInt32},
	{Seg: math.MinInt32, Page: -1},
	{Seg: 1, Page: 1 << 30},
}

// The segments and pages a table op stream draws from: rows on both sides of
// zero, segments within reach of the row table and far past it, pages that
// extend a row, land at the guarded edge, or spill.
var (
	opSegs  = []int32{0, 1, 2, 3, -1, -2, -3, 40, -40, 1000, -1000, math.MaxInt32, math.MinInt32}
	opPages = []int32{-1, -5, math.MinInt32, pageReach - 1, pageReach, pageReach + 1, 3 * pageReach, 1 << 20, 1 << 30, math.MaxInt32}
)

// checkPageTableOps interprets data as a stream of six-byte Set/Get/Delete
// operations, applies it to a PageTable and to a plain map, and after every
// step requires the same answers, the same Len, and Range in sortPageKeys
// order of the map's keys — the equality that keeps snapshot bytes unchanged.
func checkPageTableOps(t *testing.T, data []byte) {
	var table PageTable[uint32]
	model := make(map[PageKey]uint32)
	for step := 0; len(data) >= 6; step, data = step+1, data[6:] {
		key := PageKey{Seg: opSegs[int(data[1])%len(opSegs)]}
		raw := binary.LittleEndian.Uint32(data[2:6])
		switch raw & 3 {
		case 0:
			key.Page = int32(raw >> 2 & 0xff) // dense
		case 1:
			key.Page = int32(raw >> 2 & 0xffff) // sparse, mostly within reach
		case 2:
			key.Page = opPages[int(raw>>2)%len(opPages)]
		case 3:
			key.Page = int32(raw)
		}
		switch data[0] % 4 {
		case 0, 1:
			table.Set(key, raw)
			model[key] = raw
		case 2:
			table.Delete(key)
			delete(model, key)
		case 3:
			if len(model) > 64 && data[0] > 250 {
				table.Clear()
				clear(model)
			}
		}
		got, ok := table.Get(key)
		if want, wok := model[key]; got != want || ok != wok || table.Has(key) != wok {
			t.Fatalf("step %d: Get(%v) = %d, %t; model %d, %t", step, key, got, ok, want, wok)
		}
		if table.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, table.Len(), len(model))
		}
		want := make([]PageKey, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sortPageKeys(want)
		if keys := table.Keys(); !slices.Equal(keys, want) {
			t.Fatalf("step %d: iteration order %v, want %v", step, keys, want)
		}
		table.Range(func(k PageKey, v uint32) {
			if v != model[k] {
				t.Fatalf("step %d: Range yields %v = %d, model %d", step, k, v, model[k])
			}
		})
	}
}

func TestPageTableAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 6*1500)
		rand.New(rand.NewSource(seed)).Read(ops)
		checkPageTableOps(t, ops)
	}
}

// pageTableSeeds is FuzzPageTable's seed corpus: a dense run, the hostile
// keys set and deleted, and keys stepping across the guarded edge.
func pageTableSeeds(testing.TB) []fuzzSeed {
	op := func(op, seg byte, page uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{op, seg}, page)
	}
	var dense, hostile, edge []byte
	for i := uint32(0); i < 40; i++ {
		dense = append(dense, op(byte(i%3), byte(i%5), i<<2)...)
	}
	for _, seg := range []byte{11, 12, 1} {
		for _, page := range []uint32{9<<2 | 2, 0<<2 | 2, 8<<2 | 2} {
			hostile = append(hostile, op(0, seg, page)...)
			hostile = append(hostile, op(2, seg, page)...)
		}
	}
	for i := uint32(3); i < 8; i++ {
		edge = append(edge, op(0, 0, i<<2|2)...)
		edge = append(edge, op(0, 0, (i*1000)<<2|1)...)
	}
	return []fuzzSeed{{name: "empty"}, {name: "dense", data: dense}, {name: "hostile-keys", data: hostile}, {name: "edge", data: edge}}
}

func FuzzPageTable(f *testing.F) {
	for _, seed := range pageTableSeeds(f) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 6*512 {
			t.Skip("each step re-sorts the model: keep streams short")
		}
		checkPageTableOps(t, ops)
	})
}

// TestPageTableHostileKeys holds Set to the bound PageTable documents: on a
// table holding a few short rows, no key — a corner of the key space, a far
// page, the last page a row will grow to reach or the first it will not —
// costs more than one row of rowLen+pageReach slots (plus the eighth a size
// class may round up by, and a map's first bucket).
func TestPageTableHostileKeys(t *testing.T) {
	const rowLen = 100
	bound := uint64(rowLen+pageReach)*uint64(unsafe.Sizeof(pageSlot[extent]{}))*9/8 + 2048
	keys := append([]PageKey{
		{Seg: 0, Page: rowLen + pageReach - 1},
		{Seg: 0, Page: rowLen + pageReach},
		{Seg: 34, Page: 0},  // row 68: the last the five-row table will grow to
		{Seg: -35, Page: 0}, // row 69: the first it will not
	}, hostileKeys...)
	for _, key := range keys {
		var table PageTable[extent]
		for seg := int32(0); seg < 3; seg++ {
			for page := int32(0); page < rowLen; page++ {
				table.Set(PageKey{Seg: seg, Page: page}, extent{nfrags: 1})
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		table.Set(key, extent{nfrags: 2})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Errorf("Set(%v) allocated %d bytes, bound %d", key, grew, bound)
		}
		if e, ok := table.Get(key); !ok || e.nfrags != 2 || table.Len() != 3*rowLen+1 {
			t.Errorf("Set(%v) then Get = %+v, %t with Len %d", key, e, ok, table.Len())
		}
	}
}
