package swap

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"compcache/internal/fs"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/snap"
)

// commitRecord is the clustered store's commit record. Every clustered
// write ends with one, fragment-aligned, in the same device transfer as the
// data: the head (magic "CCCR"; sequence is cluster order), the fragments
// the record occupies, then one entry per item of the batch.
type commitRecord struct {
	recordHead
	recFrags int32
	entries  []commitEntry
}

// commitEntry is one item of a committed cluster, its page and where the
// item's bytes lie; WriteCluster lays a batch out as these.
type commitEntry struct {
	key PageKey
	extent
	flags uint32 // compressed, as the media holds it: bit 0
}

var (
	commitMagic      = [4]byte{'C', 'C', 'C', 'R'}
	commitHeadBytes  = encodedLen(new(commitRecord).walk) // a zero record has no entries
	commitEntryBytes = encodedLen(new(commitEntry).walk)
)

// commitBytes is the size of a commit record of n entries.
func commitBytes(n int) int { return commitHeadBytes + n*commitEntryBytes }

func (r *commitRecord) walk(c *snap.Codec) {
	r.recordHead.walk(c)
	c.I32(&r.recFrags)
	if !r.opens(commitMagic) {
		return
	}
	if c.Decoding() {
		r.entries = make([]commitEntry, c.Bound(int(r.count), math.MaxUint16, "commit record entries"))
	}
	for i := range r.entries {
		r.entries[i].walk(c)
	}
}

func (e *commitEntry) walk(c *snap.Codec) {
	pageKey(c, &e.key)
	c.I32(&e.start)
	c.I32(&e.nfrags)
	c.I32(&e.length)
	e.flags = 0
	if e.compressed {
		e.flags = 1
	}
	c.U32(&e.flags)
	e.compressed = e.flags&1 != 0
	c.U32(&e.sum)
}

// encodeCommit writes the commit record of the batch laid out in placeBuf
// into dst, the record's zeroed fragments of the cluster buffer; recFrags is
// the fragment count dst spans.
func (c *Clustered) encodeCommit(dst []byte, recFrags int32) {
	r := &c.commit
	r.recordHead = recordHead{magic: commitMagic, version: recordVersion, count: uint16(len(c.placeBuf)), seq: c.seq}
	r.recFrags, r.entries = recFrags, c.placeBuf
	encodeRecord(c.commitEnc, dst, &r.recordHead, r.walk)
}

// decode parses the commit record at the start of src through dec and
// reports whether it is a complete, checksum-valid, internally consistent
// record.
func (r *commitRecord) decode(dec *snap.Codec, src []byte, fragSize int) bool {
	dec.Reset(src)
	if r.walk(dec); dec.Err() != nil || !r.opens(commitMagic) {
		return false
	}
	end := commitBytes(len(r.entries))
	if recordSum(src[:end]) != r.crc || int(r.recFrags) != (end+fragSize-1)/fragSize {
		return false
	}
	for _, e := range r.entries {
		if e.start < 0 || e.nfrags <= 0 || e.length < 0 || int(e.length) > int(e.nfrags)*fragSize {
			return false
		}
	}
	return true
}

// RecoverClustered mounts a clustered store from whatever the media image
// holds — the reboot-after-crash path. One sequential sweep reads the whole
// swap file; every fragment boundary is probed for a checksum-valid commit
// record. Records replay in descending sequence order: an item is accepted
// when its page is not yet recovered, its fragments are not claimed by a
// newer cluster, and its data checksums clean — so the newest intact copy of
// every page wins, torn copies fall through to the previous intact one, and
// copies whose media was since reused are rejected by the claim map or the
// checksum. The rebuilt store passes CheckConsistency before it is returned.
//
// Like LFS recovery, a page invalidated in memory but never overwritten on
// the media can be resurrected; the copy is valid, merely stale, and dies at
// the next compaction.
func RecoverClustered(cfg ClusterConfig, fsys *fs.FS, bus *obs.Bus, clock *sim.Clock) (*Clustered, *RecoveryReport, error) {
	cfg.setDefaults()
	if !cfg.CommitRecords {
		return nil, nil, fmt.Errorf("swap: RecoverClustered requires ClusterConfig.CommitRecords")
	}
	if err := cfg.validate(fsys.BlockSize()); err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}
	file, err := fsys.Open("swap.clustered")
	if err != nil {
		// No swap file on the media: the machine crashed before its first
		// pageout. Boot a fresh, empty store.
		c, err := NewClustered(cfg, fsys)
		return c, rep, err
	}
	c := makeClustered(cfg, fsys, file)
	bs := int64(fsys.BlockSize())
	n := int((file.Size() + bs - 1) / bs * bs)
	if n == 0 {
		return c, rep, nil
	}

	// One sequential mount sweep reads the full media span, charged to the
	// device like any log scan.
	buf := make([]byte, n)
	if err := file.RawRead(buf, 0, n); err != nil {
		return nil, nil, fmt.Errorf("swap: recovery sweep of clustered swap: %w", err)
	}
	totalFrags := n / cfg.FragSize
	type candidate struct {
		frag int32
		commitRecord
	}
	var cands []candidate
	var rec commitRecord
	dec := snap.Decoder(new(snap.Reader))
	for f := 0; f < totalFrags; f++ {
		if rec.decode(dec, buf[f*cfg.FragSize:], cfg.FragSize) {
			cands = append(cands, candidate{int32(f), rec})
		}
	}
	rep.ScannedSegments = len(cands)

	// Newest first; fragment position breaks (corrupt-media) sequence ties
	// deterministically.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seq != cands[j].seq {
			return cands[i].seq > cands[j].seq
		}
		return cands[i].frag < cands[j].frag
	})
	claimed := make([]bool, totalFrags)
	c.byStart = make([]PageKey, totalFrags)
	unclaimedRun := func(start, nfrags int32) bool {
		// The end is summed in int: a checksum-valid hostile record with start
		// near MaxInt32 would wrap an int32 sum negative and pass the bound.
		if int(start)+int(nfrags) > totalFrags {
			return false
		}
		for i := start; i < start+nfrags; i++ {
			if claimed[i] {
				return false
			}
		}
		return true
	}
	claim := func(start, nfrags int32) {
		for i := start; i < start+nfrags; i++ {
			claimed[i] = true
		}
	}
	var maxSeq uint64
	for _, cand := range cands {
		if cand.seq > maxSeq {
			maxSeq = cand.seq
		}
		// A record whose own fragments were reused by a newer cluster is
		// dead even if its bytes happen to still parse.
		if !unclaimedRun(cand.frag, cand.recFrags) {
			continue
		}
		claim(cand.frag, cand.recFrags) // tentative; reverted if nothing survives
		accepted := 0
		for _, it := range cand.entries {
			if c.extents.Has(it.key) {
				rep.StalePages++ // a newer cluster already recovered this page
				continue
			}
			if !unclaimedRun(it.start, it.nfrags) {
				rep.StalePages++ // media since reused by a newer cluster
				continue
			}
			dataOff := int(it.start) * cfg.FragSize
			if crc32.ChecksumIEEE(buf[dataOff:dataOff+int(it.length)]) != it.sum {
				rep.TornDiscarded++
				continue
			}
			claim(it.start, it.nfrags)
			c.extents.Set(it.key, it.extent)
			c.byStart[it.start] = it.key
			c.liveFr += int(it.nfrags)
			accepted++
		}
		if accepted == 0 {
			for i := cand.frag; i < cand.frag+cand.recFrags; i++ {
				claimed[i] = false
			}
			continue
		}
		rep.RecoveredSegments++
		rep.RecoveredPages += accepted
		if bus.Enabled(obs.ClassRecovery) {
			bus.Emit(obs.Event{
				T: clock.Now(), Class: obs.ClassRecovery, Sub: obs.SubSwap,
				Seg: cand.frag, Bytes: int64(accepted * cfg.PageSize), Aux: int64(accepted),
			})
		}
	}
	c.marked = claimed
	total := 0
	for _, m := range claimed {
		if m {
			total++
		}
	}
	c.padFr = total - c.liveFr
	c.hint = 0
	c.seq = maxSeq + 1
	if err := c.CheckConsistency(); err != nil {
		return nil, nil, fmt.Errorf("swap: recovered clustered store fails consistency check: %w", err)
	}
	bus.Counter("recovery.segments").Add(uint64(rep.RecoveredSegments))
	bus.Counter("recovery.pages").Add(uint64(rep.RecoveredPages))
	bus.Counter("recovery.torn_discarded").Add(uint64(rep.TornDiscarded))
	return c, rep, nil
}

// VerifyRecovery checks the recovered store rec against pre, the pre-crash
// in-memory state, enforcing the crash-consistency guarantees:
//
//  1. No acknowledged-durable page is lost: every page in pre's map whose
//     write was not the crash-torn one must be recovered with exactly its
//     committed checksum, length, and compression flag.
//  2. A page whose rewrite was in flight when the power cut (pre.attempted)
//     must still resurface — its previous committed copy was never freed —
//     either as that old copy or, when the tear happened to preserve the
//     whole new cluster, as the in-flight copy.
//  3. No torn page is silently served: everything the recovered store
//     indexes must read back matching its recorded checksum.
func (rec *Clustered) VerifyRecovery(pre *Clustered) error {
	if !rec.cfg.CommitRecords || !pre.cfg.CommitRecords {
		return fmt.Errorf("swap: VerifyRecovery requires CommitRecords stores")
	}
	for _, key := range pre.extents.Keys() {
		e, _ := pre.extents.Get(key)
		re, ok := rec.extents.Get(key)
		if att, inflight := pre.attempted.Get(key); inflight {
			if !ok {
				return fmt.Errorf("swap: page %v (durable copy with an in-flight rewrite) lost in recovery", key)
			}
			if re.sum != e.sum && re.sum != att {
				return fmt.Errorf("swap: page %v recovered with checksum %08x; want durable %08x or in-flight %08x",
					key, re.sum, e.sum, att)
			}
			continue
		}
		if !ok {
			return fmt.Errorf("swap: acknowledged-durable page %v lost in recovery", key)
		}
		if re.sum != e.sum || re.length != e.length || re.compressed != e.compressed {
			return fmt.Errorf("swap: page %v recovered as (sum %08x, len %d, compressed %t), want (sum %08x, len %d, compressed %t)",
				key, re.sum, re.length, re.compressed, e.sum, e.length, e.compressed)
		}
	}
	for _, key := range rec.extents.Keys() {
		data, sum, _, _, ok, err := rec.Read(key)
		if err != nil {
			return fmt.Errorf("swap: recovered page %v unreadable: %w", key, err)
		}
		if !ok {
			return fmt.Errorf("swap: recovered page %v vanished from the index", key)
		}
		if crc32.ChecksumIEEE(data) != sum {
			return fmt.Errorf("swap: recovered page %v served with bytes that miss its checksum %08x", key, sum)
		}
	}
	return nil
}
