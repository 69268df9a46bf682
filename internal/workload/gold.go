package workload

import (
	"fmt"
	"math/rand"

	"compcache/internal/machine"
	"compcache/internal/simalloc"
)

// GoldPhase selects which of the paper's three gold benchmarks to run.
type GoldPhase int

// Gold benchmark phases (Table 1 rows).
const (
	// GoldCreate "creates a new index from scratch. It has a high degree of
	// write accesses"; the paper measured 0.90x (an 11% slowdown).
	GoldCreate GoldPhase = iota

	// GoldCold "performs a sequence of queries against an existing gold
	// index engine, with the index engine having just started", writing
	// many pages as well as reading them; 0.80x.
	GoldCold

	// GoldWarm "performs the same set of queries once gold_cold has
	// executed", mostly read-only faulting; 0.73x.
	GoldWarm
)

// String returns the phase name.
func (p GoldPhase) String() string {
	switch p {
	case GoldCreate:
		return "create"
	case GoldCold:
		return "cold"
	default:
		return "warm"
	}
}

// Gold reproduces the paper's main-memory database benchmark: the "index
// engine" of the Gold Mailer (Barbara et al., ICDE '93), an inverted index
// over mail messages kept entirely in virtual memory. The index is a
// chained-bucket hash table of words, each with a linked list of postings
// blocks holding ascending message IDs; postings pages compress "slightly
// worse than 2:1", and queries produce "a high fraction of nonsequential
// page accesses" — the combination that makes gold the paper's losing case
// for the compression cache.
type Gold struct {
	// Messages is the number of synthetic mail messages to index.
	Messages int

	// WordsPerMessage is the indexed words per message.
	WordsPerMessage int

	// VocabWords is the dictionary size.
	VocabWords int

	// Queries is the number of queries per query phase.
	Queries int

	// UpdateFrac is the fraction of queries that also insert a posting
	// (modifying pages); the cold run uses a higher effective write load
	// because it also replays recent-mail insertion.
	UpdateFrac float64

	// Phase selects create/cold/warm.
	Phase GoldPhase

	// Seed makes runs reproducible.
	Seed int64
}

// Name implements Workload.
func (g *Gold) Name() string { return "gold_" + g.Phase.String() }

// Index layout constants. A posting is 8 bytes: the message ID plus a
// 4-byte relevance weight. The weight carries most of the entropy, which is
// what puts gold's pages at the paper's "slightly worse than 2:1"
// compression: the IDs are structured, the weights are not.
const (
	goldBuckets     = 1 << 14
	dictEntryBytes  = 8 + 8 + 8 + 8 + 24 // link, head, tail, count, word[24]
	postingCapacity = 28
	postingEntry    = 8
	postingBytes    = 8 + 8 + postingEntry*postingCapacity // next, count, postings
)

// postingWeight derives the pseudo-random relevance weight stored with each
// posting (deterministic, high entropy).
func postingWeight(entry int64, docID uint32) uint32 {
	x := uint64(entry)*0x9E3779B97F4A7C15 ^ uint64(docID)*0xC2B2AE3D27D4EB4F
	return uint32(x>>32) ^ uint32(x)
}

// goldIndex is the in-simulated-memory index.
type goldIndex struct {
	space   *machine.Space
	arena   *simalloc.Arena
	buckets int64 // offset of the bucket array
}

func (g *Gold) hash(w string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(w); i++ {
		h ^= uint64(w[i])
		h *= 1099511628211
	}
	return h
}

// lookup finds the dictionary entry for w, returning its offset or 0.
func (ix *goldIndex) lookup(g *Gold, w string) int64 {
	b := int64(g.hash(w) % goldBuckets)
	off := int64(ix.space.ReadWord(ix.buckets + b*8))
	var wordBuf [24]byte
	for off != 0 {
		ix.space.Read(off+32, wordBuf[:])
		if entryWordEquals(wordBuf, w) {
			return off
		}
		off = int64(ix.space.ReadWord(off)) // hash chain link
	}
	return 0
}

func entryWordEquals(buf [24]byte, w string) bool {
	if len(w) > 23 {
		w = w[:23]
	}
	if int(buf[0]) != len(w) {
		return false
	}
	for i := 0; i < len(w); i++ {
		if buf[1+i] != w[i] {
			return false
		}
	}
	return true
}

// insertWord finds or creates the dictionary entry for w.
func (ix *goldIndex) insertWord(g *Gold, w string) int64 {
	if off := ix.lookup(g, w); off != 0 {
		return off
	}
	b := int64(g.hash(w) % goldBuckets)
	head := ix.space.ReadWord(ix.buckets + b*8)
	off := ix.arena.Alloc(dictEntryBytes, 8)
	ix.space.WriteWord(off, head) // chain link
	ix.space.WriteWord(off+8, 0)  // postings head
	ix.space.WriteWord(off+16, 0) // postings tail
	ix.space.WriteWord(off+24, 0) // posting count
	var wordBuf [24]byte
	n := len(w)
	if n > 23 {
		n = 23
	}
	wordBuf[0] = byte(n)
	copy(wordBuf[1:], w[:n])
	ix.space.Write(off+32, wordBuf[:])
	ix.space.WriteWord(ix.buckets+b*8, uint64(off))
	return off
}

// addPosting appends docID to w's postings list.
func (ix *goldIndex) addPosting(g *Gold, w string, docID uint32) {
	entry := ix.insertWord(g, w)
	tail := int64(ix.space.ReadWord(entry + 16))
	if tail != 0 {
		count := ix.space.ReadWord(tail + 8)
		if count < postingCapacity {
			ix.writePosting(tail+16+int64(count)*postingEntry, entry, docID)
			ix.space.WriteWord(tail+8, count+1)
			ix.space.WriteWord(entry+24, ix.space.ReadWord(entry+24)+1)
			return
		}
	}
	// Allocate a new postings block.
	blk := ix.arena.Alloc(postingBytes, 8)
	ix.space.WriteWord(blk, 0)   // next
	ix.space.WriteWord(blk+8, 1) // count
	ix.writePosting(blk+16, entry, docID)
	if tail != 0 {
		ix.space.WriteWord(tail, uint64(blk))
	} else {
		ix.space.WriteWord(entry+8, uint64(blk))
	}
	ix.space.WriteWord(entry+16, uint64(blk))
	ix.space.WriteWord(entry+24, ix.space.ReadWord(entry+24)+1)
}

// writePosting stores one 8-byte posting (doc ID + relevance weight).
func (ix *goldIndex) writePosting(off, entry int64, docID uint32) {
	w := postingWeight(entry, docID)
	var buf [postingEntry]byte
	buf[0], buf[1], buf[2], buf[3] = byte(docID), byte(docID>>8), byte(docID>>16), byte(docID>>24)
	buf[4], buf[5], buf[6], buf[7] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	ix.space.Write(off, buf[:])
}

// queryScanLimit bounds how many postings one query reads: the engine
// returns the best matches, not the full list, like any ranked-retrieval
// system. The cap also keeps popular-word queries from dwarfing the rest of
// the benchmark.
const queryScanLimit = 1024

// query walks w's postings list (up to the scan limit), returning the number
// of postings touched.
func (ix *goldIndex) query(g *Gold, w string) int {
	entry := ix.lookup(g, w)
	if entry == 0 {
		return 0
	}
	touched := 0
	blk := int64(ix.space.ReadWord(entry + 8))
	var buf [postingEntry]byte
	for blk != 0 && touched < queryScanLimit {
		count := int(ix.space.ReadWord(blk + 8))
		for i := 0; i < count && touched < queryScanLimit; i++ {
			ix.space.Read(blk+16+int64(i)*postingEntry, buf[:])
			touched++
		}
		blk = int64(ix.space.ReadWord(blk))
	}
	return touched
}

// Run implements Workload.
func (g *Gold) Run(m *machine.Machine) error {
	if g.Messages <= 0 {
		return fmt.Errorf("gold: Messages must be positive")
	}
	if g.WordsPerMessage == 0 {
		g.WordsPerMessage = 48
	}
	if g.VocabWords == 0 {
		g.VocabWords = 12000
	}
	if g.Queries == 0 {
		g.Queries = g.Messages / 2
	}
	if g.UpdateFrac == 0 {
		g.UpdateFrac = 0.02
	}

	words := vocabulary(g.VocabWords, g.Seed+1)
	rng := rand.New(rand.NewSource(g.Seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(g.VocabWords-1))

	// Size the heap: postings dominate. Updates during the query phases
	// allocate more blocks, hence the slack factor.
	postings := int64(g.Messages)*int64(g.WordsPerMessage) + int64(g.Queries)
	heapBytes := int64(goldBuckets)*8 +
		int64(g.VocabWords)*dictEntryBytes*2 +
		(postings/postingCapacity+int64(g.VocabWords)+16)*postingBytes*2 +
		int64(m.Config().PageSize)*8
	space := m.NewSegment("gold", heapBytes)
	arena := simalloc.New(space)
	ix := &goldIndex{space: space, arena: arena}
	ix.buckets = arena.AllocPageAligned(goldBuckets * 8)

	// A dead machine reads every word as zero, so every lookup would miss
	// and every insert allocate until the arena ran out: build and
	// runQueries stop at the machine's error, checked once per message and
	// once per query, and Run returns it. A failed EvictAll has lost a page
	// without killing the machine, so Run returns that error at once.
	build := func() {
		for msg := 0; msg < g.Messages && m.Err() == nil; msg++ {
			for i := 0; i < g.WordsPerMessage; i++ {
				ix.addPosting(g, words[zipf.Uint64()], uint32(msg))
			}
		}
	}
	runQueries := func(n int, updateFrac float64, seed int64) {
		qrng := rand.New(rand.NewSource(seed))
		qzipf := rand.NewZipf(qrng, 1.1, 1, uint64(g.VocabWords-1))
		nextDoc := uint32(g.Messages)
		for q := 0; q < n && m.Err() == nil; q++ {
			w := words[qzipf.Uint64()]
			ix.query(g, w)
			if qrng.Float64() < updateFrac {
				ix.addPosting(g, w, nextDoc)
				nextDoc++
			}
		}
	}

	switch g.Phase {
	case GoldCreate:
		m.MarkStart()
		build()
	case GoldCold:
		build()
		// The engine "having just started": nothing resident.
		if err := m.EvictAll(); err != nil {
			return err
		}
		m.MarkStart()
		// The cold run both answers queries and absorbs new mail, so it
		// "writes many pages as well as reading them".
		runQueries(g.Queries, 0.3, g.Seed+7)
	case GoldWarm:
		build()
		if err := m.EvictAll(); err != nil {
			return err
		}
		runQueries(g.Queries, 0.3, g.Seed+7) // untimed cold pass
		m.MarkStart()
		runQueries(g.Queries, g.UpdateFrac, g.Seed+8)
	default:
		return fmt.Errorf("gold: unknown phase %d", g.Phase)
	}
	m.Drain()
	return m.Err()
}
