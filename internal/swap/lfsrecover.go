package swap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/obs"
	"compcache/internal/sim"
)

// Durable LFS segment layout. Each segment opens with one file-system block
// holding the segment header; the page slots follow. Header and pages reach
// the device as a single transfer (Flush), so a power cut tears them
// together and the header's checksum detects any torn suffix:
//
//	off  0   magic "CCLF"
//	off  4   version  (uint16 LE)
//	off  6   count    (uint16 LE)   slots recorded
//	off  8   sequence (uint64 LE)   log order; higher supersedes lower
//	off 16   CRC-32   (uint32 LE)   over bytes [0, 20+16*count) with this
//	                                field zeroed
//	off 20   count records of 16 bytes:
//	             seg    (int32 LE)  page identity (lfsTombstone for a slot
//	             page   (int32 LE)  invalidated before the flush)
//	             length (uint32 LE) payload bytes (the page size)
//	             sum    (uint32 LE) CRC-32 of the slot's page data
const (
	lfsHeaderFixed = 20
	lfsRecordBytes = 16
	lfsVersion     = 1
)

var lfsMagic = [4]byte{'C', 'C', 'L', 'F'}

// lfsEncodeHeader serializes the open segment's record table into dst (the
// header block of the staged segment image). Unused header bytes are zeroed
// so media contents are a pure function of the write history.
func lfsEncodeHeader(dst []byte, seq uint64, seg *lfsSegment, pageSize int) {
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, lfsMagic[:])
	binary.LittleEndian.PutUint16(dst[4:], lfsVersion)
	binary.LittleEndian.PutUint16(dst[6:], uint16(len(seg.pages)))
	binary.LittleEndian.PutUint64(dst[8:], seq)
	for i, key := range seg.pages {
		off := lfsHeaderFixed + i*lfsRecordBytes
		binary.LittleEndian.PutUint32(dst[off:], uint32(key.Seg))
		binary.LittleEndian.PutUint32(dst[off+4:], uint32(key.Page))
		if key == lfsTombstone {
			continue // length and sum stay zero
		}
		binary.LittleEndian.PutUint32(dst[off+8:], uint32(pageSize))
		binary.LittleEndian.PutUint32(dst[off+12:], seg.sums[i])
	}
	crc := crc32.ChecksumIEEE(dst[:lfsHeaderFixed+len(seg.pages)*lfsRecordBytes])
	binary.LittleEndian.PutUint32(dst[16:], crc)
}

// lfsDecodeHeader parses and validates a segment header block. It returns
// ok=false for anything that is not a complete, checksum-valid header —
// unwritten media, a torn header, or garbage.
func lfsDecodeHeader(src []byte, pagesPerSeg int) (seq uint64, keys []PageKey, lengths []uint32, sums []uint32, ok bool) {
	if len(src) < lfsHeaderFixed {
		return 0, nil, nil, nil, false
	}
	if [4]byte{src[0], src[1], src[2], src[3]} != lfsMagic {
		return 0, nil, nil, nil, false
	}
	if binary.LittleEndian.Uint16(src[4:]) != lfsVersion {
		return 0, nil, nil, nil, false
	}
	count := int(binary.LittleEndian.Uint16(src[6:]))
	if count == 0 || count > pagesPerSeg || lfsHeaderFixed+count*lfsRecordBytes > len(src) {
		return 0, nil, nil, nil, false
	}
	stored := binary.LittleEndian.Uint32(src[16:])
	end := lfsHeaderFixed + count*lfsRecordBytes
	scratch := make([]byte, end)
	copy(scratch, src[:end])
	scratch[16], scratch[17], scratch[18], scratch[19] = 0, 0, 0, 0
	if crc32.ChecksumIEEE(scratch) != stored {
		return 0, nil, nil, nil, false
	}
	seq = binary.LittleEndian.Uint64(src[8:])
	keys = make([]PageKey, count)
	lengths = make([]uint32, count)
	sums = make([]uint32, count)
	for i := 0; i < count; i++ {
		off := lfsHeaderFixed + i*lfsRecordBytes
		keys[i] = PageKey{
			Seg:  int32(binary.LittleEndian.Uint32(src[off:])),
			Page: int32(binary.LittleEndian.Uint32(src[off+4:])),
		}
		lengths[i] = binary.LittleEndian.Uint32(src[off+8:])
		sums[i] = binary.LittleEndian.Uint32(src[off+12:])
	}
	return seq, keys, lengths, sums, true
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
	hdr := make([]byte, l.headerBytes)
	data := make([]byte, l.pagesPerSeg*cfg.PageSize)
	for s := int32(0); int(s) < nRegions; s++ {
		rep.ScannedSegments++
		if err := file.RawRead(hdr, l.segOff(s), l.headerBytes); err != nil {
			return nil, nil, fmt.Errorf("swap: recovery read of segment %d header: %w", s, err)
		}
		seq, keys, lengths, sums, ok := lfsDecodeHeader(hdr, l.pagesPerSeg)
		if !ok {
			continue // never written, torn header, or garbage: region is free
		}
		n := len(keys) * cfg.PageSize
		if err := file.RawRead(data[:n], l.dataOff(s, 0), n); err != nil {
			return nil, nil, fmt.Errorf("swap: recovery read of segment %d data: %w", s, err)
		}
		seg := &lfsSegment{
			seq:   seq,
			pages: make([]PageKey, len(keys)),
			sums:  make([]uint32, len(keys)),
		}
		for i, key := range keys {
			seg.pages[i] = lfsTombstone
			if key == lfsTombstone {
				continue
			}
			pg := data[i*cfg.PageSize : (i+1)*cfg.PageSize]
			if lengths[i] != uint32(cfg.PageSize) || crc32.ChecksumIEEE(pg) != sums[i] {
				// The header survived but this slot's data did not reach the
				// media whole — the torn tail of the crashed flush.
				rep.TornDiscarded++
				continue
			}
			seg.pages[i] = key
			seg.sums[i] = sums[i]
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
	cur, err := l.allocSegment()
	if err != nil {
		return nil, nil, err
	}
	l.cur = cur
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
