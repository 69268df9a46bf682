package swap

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/snap"
)

// recordHead opens both durable formats' records, the LFS segment header
// and the clustered commit record. A format's layout is its walk, the fields
// visited in order, fixed-width and little-endian: here the magic, version,
// entry count, sequence (higher supersedes lower) and, at byte crcAt, the
// CRC-32 of the whole record with this field read as zero.
type recordHead struct {
	magic          [4]byte
	version, count uint16
	seq            uint64
	crc            uint32
}

const (
	recordVersion = 1
	crcAt         = 16
)

func (h *recordHead) walk(c *snap.Codec) {
	for i := range h.magic {
		snap.Byte(c, &h.magic[i])
	}
	c.U16(&h.version)
	c.U16(&h.count)
	c.U64(&h.seq)
	c.U32(&h.crc)
}

// opens reports whether h opens a record of the format magic names, with
// entries; a record's walk reads no further than a head that does not.
func (h *recordHead) opens(magic [4]byte) bool {
	return h.magic == magic && h.version == recordVersion && h.count != 0
}

// crcZero stands in for a record's checksum field while it is summed.
var crcZero [4]byte

// recordSum is the CRC-32 of the encoded record b, its checksum field read
// as zero.
func recordSum(b []byte) uint32 {
	sum := crc32.Update(crc32.ChecksumIEEE(b[:crcAt]), crc32.IEEETable, crcZero[:])
	return crc32.Update(sum, crc32.IEEETable, b[crcAt+len(crcZero):])
}

// encodeRecord encodes the record walk visits, whose head is h, into dst —
// zeroed, and large enough to hold it — and seals it with its checksum. enc
// is the store's encoder, Reset for every record so that none allocates.
func encodeRecord(enc *snap.Codec, dst []byte, h *recordHead, walk func(*snap.Codec)) {
	enc.Reset(dst[:0])
	walk(enc) // cannot fail: only decoding checks anything
	b := enc.Raw()
	h.crc = recordSum(b)
	enc.Reset(b[crcAt:crcAt])
	enc.U32(&h.crc)
}

// encodedLen is the size of what walk encodes: the fields are fixed-width,
// so a record's size follows from its entry count.
func encodedLen(walk func(*snap.Codec)) int {
	enc := snap.Encoder(new(snap.Writer))
	walk(enc)
	return len(enc.Raw())
}

// segmentHeader is the durable LFS segment header, alone in the segment's
// first block (the rest of the block zero) and written with the segment's
// pages as one transfer, so a torn flush fails its checksum.
type segmentHeader struct {
	recordHead // magic "CCLF"
	slots      []headerSlot
}

// headerSlot records one page slot of a segment.
type headerSlot struct {
	key    PageKey // lfsTombstone for a slot invalidated before the flush
	length uint32  // payload bytes (the page size); zero for a tombstone
	sum    uint32  // CRC-32 of the slot's page data; zero for a tombstone
}

var (
	lfsMagic     = [4]byte{'C', 'C', 'L', 'F'}
	lfsHeadBytes = encodedLen(new(recordHead).walk)
	lfsSlotBytes = encodedLen(new(headerSlot).walk)
)

func (h *segmentHeader) walk(c *snap.Codec) {
	h.recordHead.walk(c)
	if !h.opens(lfsMagic) {
		return
	}
	if c.Decoding() {
		h.slots = make([]headerSlot, c.Bound(int(h.count), math.MaxUint16, "lfs header slots"))
	}
	for i := range h.slots {
		h.slots[i].walk(c)
	}
}

func (s *headerSlot) walk(c *snap.Codec) {
	pageKey(c, &s.key)
	c.U32(&s.length)
	c.U32(&s.sum)
}

// encodeHeader writes the header of seg, the open segment, into the staged
// segment image's header block.
func (l *LFS) encodeHeader(seg *lfsSegment) {
	h := &l.header
	h.recordHead = recordHead{magic: lfsMagic, version: recordVersion, count: uint16(len(seg.pages)), seq: seg.seq}
	h.slots = h.slots[:0]
	for i, key := range seg.pages {
		slot := headerSlot{key: key}
		if key != lfsTombstone {
			slot.length, slot.sum = uint32(l.cfg.PageSize), seg.sums[i]
		}
		h.slots = append(h.slots, slot)
	}
	clear(l.stage[:l.headerBytes])
	encodeRecord(l.headerEnc, l.stage[:l.headerBytes], &h.recordHead, h.walk)
}

// decode parses the header block src through dec and reports whether it
// holds a complete, checksum-valid header of at most pagesPerSeg slots —
// not unwritten media, a torn header, or garbage.
func (h *segmentHeader) decode(dec *snap.Codec, src []byte, pagesPerSeg int) bool {
	dec.Reset(src)
	h.walk(dec)
	return dec.Err() == nil && h.opens(lfsMagic) && len(h.slots) <= pagesPerSeg &&
		recordSum(src[:lfsHeadBytes+len(h.slots)*lfsSlotBytes]) == h.crc
}

// RecoveryReport summarizes one mount-time recovery pass.
type RecoveryReport struct {
	ScannedSegments   int // media regions examined
	RecoveredSegments int // checksum-valid segments (or commit records) accepted
	RecoveredPages    int // page copies reindexed as live
	StalePages        int // valid copies superseded by a higher sequence number
	TornDiscarded     int // records discarded for a failed data checksum
}

// String renders the report in a fixed human-readable layout.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("scanned %d segment(s): recovered %d segment(s), %d page(s) live, %d stale, %d torn record(s) discarded",
		r.ScannedSegments, r.RecoveredSegments, r.RecoveredPages, r.StalePages, r.TornDiscarded)
}

// RecoverLFS mounts a log-structured store from whatever the media image
// holds — the reboot-after-crash path. It scans every segment-sized region
// of the swap file, accepts the regions whose header block parses and
// checksums clean, validates each recorded page slot against its data
// checksum (discarding torn tails), and replays the accepted segments in
// sequence order so the highest-sequence copy of every page wins. The
// rebuilt store passes CheckConsistency before it is returned.
//
// Recovery reads cost real device time on the machine's clock, like any
// mount-time log scan. Events on bus (nil-safe) record per-segment recovery;
// clock stamps them.
//
// A page that was invalidated in memory but never overwritten on the media
// is resurrected by recovery: the log has no record of the invalidation.
// That is safe — the VM layer re-faults pages it still cares about and the
// extra copies die at the next cleaning pass — and it is exactly how a
// log without explicit deletion records behaves after a crash.
func RecoverLFS(cfg LFSConfig, fsys *fs.FS, pool *mem.Pool, bus *obs.Bus, clock *sim.Clock) (*LFS, *RecoveryReport, error) {
	cfg.setDefaults()
	if !cfg.Durable {
		return nil, nil, fmt.Errorf("swap: RecoverLFS requires LFSConfig.Durable")
	}
	rep := &RecoveryReport{}
	file, err := fsys.Open("swap.lfs")
	if err != nil {
		// No swap file on the media: the machine crashed before its first
		// pageout. Boot a fresh, empty store.
		l, err := NewLFS(cfg, fsys, pool)
		return l, rep, err
	}
	l, err := makeLFS(cfg, fsys, pool, file)
	if err != nil {
		return nil, nil, err
	}

	type candidate struct {
		region int32
		seg    *lfsSegment
	}
	var cands []candidate
	nRegions := int((file.Size() + int64(cfg.SegmentBytes) - 1) / int64(cfg.SegmentBytes))
	buf := make([]byte, l.headerBytes)
	data := make([]byte, l.pagesPerSeg*cfg.PageSize)
	var hdr segmentHeader
	dec := snap.Decoder(new(snap.Reader))
	for s := int32(0); int(s) < nRegions; s++ {
		rep.ScannedSegments++
		if err := file.RawRead(buf, l.segOff(s), l.headerBytes); err != nil {
			return nil, nil, fmt.Errorf("swap: recovery read of segment %d header: %w", s, err)
		}
		if !hdr.decode(dec, buf, l.pagesPerSeg) {
			continue // never written, torn header, or garbage: region is free
		}
		n := len(hdr.slots) * cfg.PageSize
		if err := file.RawRead(data[:n], l.dataOff(s, 0), n); err != nil {
			return nil, nil, fmt.Errorf("swap: recovery read of segment %d data: %w", s, err)
		}
		seg := &lfsSegment{
			seq:   hdr.seq,
			pages: make([]PageKey, len(hdr.slots)),
			sums:  make([]uint32, len(hdr.slots)),
		}
		for i, slot := range hdr.slots {
			seg.pages[i] = lfsTombstone
			if slot.key == lfsTombstone {
				continue
			}
			pg := data[i*cfg.PageSize : (i+1)*cfg.PageSize]
			if slot.length != uint32(cfg.PageSize) || crc32.ChecksumIEEE(pg) != slot.sum {
				// The header survived but this slot's data did not reach the
				// media whole — the torn tail of the crashed flush.
				rep.TornDiscarded++
				continue
			}
			seg.pages[i] = slot.key
			seg.sums[i] = slot.sum
		}
		cands = append(cands, candidate{region: s, seg: seg})
	}

	// Replay in sequence order so a later copy of a page supersedes an
	// earlier one; region number breaks (corrupt-media) sequence ties
	// deterministically.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seg.seq != cands[j].seg.seq {
			return cands[i].seg.seq < cands[j].seg.seq
		}
		return cands[i].region < cands[j].region
	})
	l.segs = make([]*lfsSegment, nRegions)
	var maxSeq uint64
	for _, c := range cands {
		l.segs[c.region] = c.seg
		if c.seg.seq > maxSeq {
			maxSeq = c.seg.seq
		}
		rep.RecoveredSegments++
		pages := 0
		for i, key := range c.seg.pages {
			if key == lfsTombstone {
				continue
			}
			if old, ok := l.loc.Get(key); ok {
				stale := l.segs[old.seg]
				stale.pages[old.idx] = lfsTombstone
				stale.live--
				rep.StalePages++
			}
			l.loc.Set(key, lfsLoc{seg: c.region, idx: int32(i)})
			c.seg.live++
			pages++
		}
		rep.RecoveredPages += pages
		if bus.Enabled(obs.ClassRecovery) {
			bus.Emit(obs.Event{
				T: clock.Now(), Class: obs.ClassRecovery, Sub: obs.SubSwap,
				Seg: c.region, Bytes: int64(pages * cfg.PageSize), Aux: int64(pages),
			})
		}
	}
	for s := 0; s < nRegions; s++ {
		if l.segs[s] == nil {
			l.free = append(l.free, int32(s))
		}
	}
	l.seq = maxSeq + 1
	l.cur = l.allocSegment()
	if err := l.CheckConsistency(); err != nil {
		return nil, nil, fmt.Errorf("swap: recovered LFS fails consistency check: %w", err)
	}
	bus.Counter("recovery.segments").Add(uint64(rep.RecoveredSegments))
	bus.Counter("recovery.pages").Add(uint64(rep.RecoveredPages))
	bus.Counter("recovery.torn_discarded").Add(uint64(rep.TornDiscarded))
	return l, rep, nil
}

// VerifyRecovery checks the recovered store rec against pre, the pre-crash
// in-memory state, enforcing the two crash-consistency guarantees:
//
//  1. No acknowledged-durable page is lost: every page whose newest copy had
//     been flushed before the crash (its location is not the open segment)
//     must be recovered with exactly that copy's checksum.
//  2. No torn page is silently served: every page the recovered store
//     indexes must read back matching its recorded checksum.
//
// Pages whose newest copy was still staged in the open segment carry no
// durability promise — the crashed flush may have torn them away — so they
// are allowed to be missing or to resurface as an older durable copy.
func (rec *LFS) VerifyRecovery(pre *LFS) error {
	if !rec.durable() || !pre.durable() {
		return fmt.Errorf("swap: VerifyRecovery requires durable stores")
	}
	for _, key := range pre.loc.Keys() {
		pos, _ := pre.loc.Get(key)
		if pos.seg == pre.cur {
			continue // staged only: no durability promise
		}
		want := pre.segs[pos.seg].sums[pos.idx]
		rpos, ok := rec.loc.Get(key)
		if !ok {
			return fmt.Errorf("swap: acknowledged-durable page %v lost in recovery", key)
		}
		if got := rec.segs[rpos.seg].sums[rpos.idx]; got != want {
			return fmt.Errorf("swap: page %v recovered with checksum %08x, want durable copy %08x", key, got, want)
		}
	}
	buf := make([]byte, rec.cfg.PageSize)
	for _, key := range rec.loc.Keys() {
		ok, err := rec.Read(key, buf)
		if err != nil {
			return fmt.Errorf("swap: recovered page %v unreadable: %w", key, err)
		}
		if !ok {
			return fmt.Errorf("swap: recovered page %v vanished from the index", key)
		}
		pos, _ := rec.loc.Get(key)
		want := rec.segs[pos.seg].sums[pos.idx]
		if sum := crc32.ChecksumIEEE(buf); sum != want {
			return fmt.Errorf("swap: recovered page %v served with checksum %08x, recorded %08x", key, sum, want)
		}
	}
	return nil
}
