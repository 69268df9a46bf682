package swap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"compcache/internal/fs"
	"compcache/internal/obs"
	"compcache/internal/sim"
)

// Clustered commit-record layout. Every clustered write ends with one of
// these, fragment-aligned, in the same device transfer as the data:
//
//	off  0   magic "CCCR"
//	off  4   version  (uint16 LE)
//	off  6   count    (uint16 LE)   items in the batch
//	off  8   sequence (uint64 LE)   cluster order; higher supersedes lower
//	off 16   CRC-32   (uint32 LE)   over bytes [0, 24+28*count) with this
//	                                field zeroed
//	off 20   recFrags (uint32 LE)   fragments the record occupies
//	off 24   count records of 28 bytes:
//	             seg    (int32 LE)   page identity
//	             page   (int32 LE)
//	             start  (int32 LE)   absolute first fragment of the extent
//	             nfrags (int32 LE)
//	             length (int32 LE)   exact stored byte length
//	             flags  (uint32 LE)  bit 0: compressed
//	             sum    (uint32 LE)  CRC-32 of the stored bytes (Item.Sum)
const (
	ccrFixed       = 24
	ccrRecordBytes = 28
	ccrVersion     = 1
)

var ccrMagic = [4]byte{'C', 'C', 'C', 'R'}

// ccrEncode serializes a commit record for a batch placed at absolute
// fragment start. dst is the record's fragment range within the cluster
// serialization buffer, already zeroed; recFrags is the fragment count that
// range spans.
func ccrEncode(dst []byte, seq uint64, start int32, recFrags int32, placements []placement) {
	copy(dst, ccrMagic[:])
	binary.LittleEndian.PutUint16(dst[4:], ccrVersion)
	binary.LittleEndian.PutUint16(dst[6:], uint16(len(placements)))
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint32(dst[20:], uint32(recFrags))
	for i, p := range placements {
		off := ccrFixed + i*ccrRecordBytes
		binary.LittleEndian.PutUint32(dst[off:], uint32(p.item.Key.Seg))
		binary.LittleEndian.PutUint32(dst[off+4:], uint32(p.item.Key.Page))
		binary.LittleEndian.PutUint32(dst[off+8:], uint32(start+p.rel))
		binary.LittleEndian.PutUint32(dst[off+12:], uint32(p.nfrags))
		binary.LittleEndian.PutUint32(dst[off+16:], uint32(len(p.item.Data)))
		var flags uint32
		if p.item.Compressed {
			flags |= 1
		}
		binary.LittleEndian.PutUint32(dst[off+20:], flags)
		binary.LittleEndian.PutUint32(dst[off+24:], p.item.Sum)
	}
	crc := crc32.ChecksumIEEE(dst[:ccrFixed+len(placements)*ccrRecordBytes])
	binary.LittleEndian.PutUint32(dst[16:], crc)
}

// ccrItem is one decoded commit-record entry.
type ccrItem struct {
	key        PageKey
	start      int32
	nfrags     int32
	length     int32
	compressed bool
	sum        uint32
}

// ccrDecode parses and validates a commit record at the start of src. It
// returns ok=false for anything that is not a complete, checksum-valid,
// internally consistent record.
func ccrDecode(src []byte, fragSize int) (seq uint64, recFrags int32, items []ccrItem, ok bool) {
	if len(src) < ccrFixed {
		return 0, 0, nil, false
	}
	if [4]byte{src[0], src[1], src[2], src[3]} != ccrMagic {
		return 0, 0, nil, false
	}
	if binary.LittleEndian.Uint16(src[4:]) != ccrVersion {
		return 0, 0, nil, false
	}
	count := int(binary.LittleEndian.Uint16(src[6:]))
	end := ccrFixed + count*ccrRecordBytes
	if count == 0 || end > len(src) {
		return 0, 0, nil, false
	}
	stored := binary.LittleEndian.Uint32(src[16:])
	scratch := make([]byte, end)
	copy(scratch, src[:end])
	scratch[16], scratch[17], scratch[18], scratch[19] = 0, 0, 0, 0
	if crc32.ChecksumIEEE(scratch) != stored {
		return 0, 0, nil, false
	}
	recFrags = int32(binary.LittleEndian.Uint32(src[20:]))
	if recFrags != int32((end+fragSize-1)/fragSize) {
		return 0, 0, nil, false
	}
	seq = binary.LittleEndian.Uint64(src[8:])
	items = make([]ccrItem, count)
	for i := 0; i < count; i++ {
		off := ccrFixed + i*ccrRecordBytes
		it := ccrItem{
			key: PageKey{
				Seg:  int32(binary.LittleEndian.Uint32(src[off:])),
				Page: int32(binary.LittleEndian.Uint32(src[off+4:])),
			},
			start:      int32(binary.LittleEndian.Uint32(src[off+8:])),
			nfrags:     int32(binary.LittleEndian.Uint32(src[off+12:])),
			length:     int32(binary.LittleEndian.Uint32(src[off+16:])),
			compressed: binary.LittleEndian.Uint32(src[off+20:])&1 != 0,
			sum:        binary.LittleEndian.Uint32(src[off+24:]),
		}
		if it.start < 0 || it.nfrags <= 0 || it.length < 0 || int(it.length) > int(it.nfrags)*fragSize {
			return 0, 0, nil, false
		}
		items[i] = it
	}
	return seq, recFrags, items, true
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
		frag     int32
		seq      uint64
		recFrags int32
		items    []ccrItem
	}
	var cands []candidate
	for f := 0; f < totalFrags; f++ {
		seq, recFrags, items, ok := ccrDecode(buf[f*cfg.FragSize:], cfg.FragSize)
		if !ok {
			continue
		}
		cands = append(cands, candidate{frag: int32(f), seq: seq, recFrags: recFrags, items: items})
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
		for _, it := range cand.items {
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
			e := extent{start: it.start, nfrags: it.nfrags, length: it.length, compressed: it.compressed, sum: it.sum}
			c.extents.Set(it.key, e)
			c.byStart[e.start] = it.key
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
