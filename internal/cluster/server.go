// Package cluster wires N simulated machines through the network device to
// one shared remote page server, all co-advancing on a single discrete-event
// kernel — the fleet version of the paper's diskless mobile scenario (§1,
// §6). The server carries its own compressed swap tier in front of its disk,
// contention shows up as queueing on the server's serial timeline, and
// machines under memory pressure migrate pages into siblings' donated memory
// before falling back to the server.
package cluster

import (
	"time"

	"compcache/internal/sim"
)

// ServerConfig parameterizes the shared page server.
type ServerConfig struct {
	// PerOp is the server CPU time to handle one request (lookup, checksum,
	// tier bookkeeping).
	PerOp time.Duration

	// TierBytes is the capacity of the server's compressed swap tier: server
	// DRAM holding recently served pages in their compressed travel form.
	// Requests that hit the tier are served at CPU speed; misses and
	// capacity demotions go to the server disk. Zero disables the tier.
	TierBytes int64

	// DiskAccess is the per-operation latency of the server disk (seek plus
	// rotation, flattened — the server disk is the slow path by design).
	DiskAccess time.Duration

	// DiskBytesPerSec is the server disk bandwidth.
	DiskBytesPerSec float64
}

// DefaultServerConfig returns an RZ57-class server disk behind a 2-MByte
// compressed tier, with DECstation-class request handling.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		PerOp:           300 * time.Microsecond,
		TierBytes:       2 << 20,
		DiskAccess:      20 * time.Millisecond,
		DiskBytesPerSec: 2e6,
	}
}

// ServerStats counts what the server did.
type ServerStats struct {
	Ops       uint64 // requests admitted (including forwards)
	Forwards  uint64 // machine-to-machine forwards (no placement)
	TierHits  uint64 // reads served from the compressed tier
	TierMiss  uint64 // reads that went to the server disk
	Demotions uint64 // tier entries pushed to disk to make room
}

// tierEntry is one resident page of the server's compressed tier, linked
// into the LRU ring through the entry itself so that placing a page allocates
// nothing once the freelist is warm.
type tierEntry struct {
	addr       int64
	bytes      int
	prev, next *tierEntry
}

// Server is the shared remote page server: one serial service timeline (the
// whole fleet queues on it), a compressed DRAM tier, and a disk timeline
// behind it. It implements netdev.RemoteEndpoint, so every machine's network
// device hands it each transfer's arrival instant and gets back the reply
// instant.
//
// All methods are called from kernel actor goroutines, which run one at a
// time in kernel dispatch order, so the server needs no locking and its
// timeline is deterministic at any host parallelism.
type Server struct {
	cfg      ServerConfig
	srvBusy  sim.Time  // serial service timeline: the fleet queues here
	diskBusy sim.Time  // server-disk timeline behind the tier
	lru      tierEntry // ring sentinel: next is the most recent entry, prev the oldest
	byAddr   map[int64]*tierEntry
	free     []*tierEntry // demoted/released entries recycled by newTier
	tierUsed int64
	st       ServerStats
}

// newTier recycles a demoted tier entry, or allocates one while the
// freelist warms up — tierInsert sits on the fleet's paging hot path.
func (s *Server) newTier(addr int64, bytes int) *tierEntry {
	if n := len(s.free); n > 0 {
		ent := s.free[n-1]
		s.free = s.free[:n-1]
		ent.addr, ent.bytes = addr, bytes
		return ent
	}
	ent := new(tierEntry)
	ent.addr, ent.bytes = addr, bytes
	return ent
}

// NewServer builds an idle server.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, byAddr: make(map[int64]*tierEntry)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// unlink takes ent out of the LRU ring.
func (s *Server) unlink(ent *tierEntry) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
}

// pushFront makes ent the most recently used entry.
func (s *Server) pushFront(ent *tierEntry) {
	ent.prev, ent.next = &s.lru, s.lru.next
	ent.prev.next, ent.next.prev = ent, ent
}

// Stats reports the server counters.
func (s *Server) Stats() ServerStats { return s.st }

// BusyUntil reports when the server's serial timeline drains.
func (s *Server) BusyUntil() sim.Time { return s.srvBusy }

// diskTime is the server-disk service time for one transfer.
func (s *Server) diskTime(bytes int) time.Duration {
	return s.cfg.DiskAccess + time.Duration(float64(bytes)/s.cfg.DiskBytesPerSec*float64(time.Second))
}

// Admit implements netdev.RemoteEndpoint: the request arrives at the server
// when the link finishes carrying it, queues behind every earlier request
// from the whole fleet, pays server CPU, and — when it addresses storage —
// the tier/disk cost of the placement or lookup. addr == -1 is a pure
// forward: the server relays bytes between machines without placing them.
func (s *Server) Admit(arrival sim.Time, addr int64, bytes int, write bool) sim.Time {
	s.st.Ops++
	start := arrival
	if s.srvBusy > start {
		start = s.srvBusy
	}
	done := start.Add(s.cfg.PerOp)
	switch {
	case addr == -1:
		s.st.Forwards++
	case write:
		s.tierInsert(addr, bytes, &done)
	default:
		if ent, ok := s.byAddr[addr]; ok {
			s.st.TierHits++
			s.unlink(ent)
			s.pushFront(ent)
		} else {
			// Tier miss: the read serializes behind the server disk, then
			// the page is promoted into the tier on its way out.
			s.st.TierMiss++
			dst := done
			if s.diskBusy > dst {
				dst = s.diskBusy
			}
			dst = dst.Add(s.diskTime(bytes))
			s.diskBusy = dst
			done = dst
			s.tierInsert(addr, bytes, &done)
		}
	}
	s.srvBusy = done
	return done
}

// tierInsert places (or refreshes) a page in the compressed tier, demoting
// the oldest entries to the server disk when capacity runs out. Demotion
// writes are asynchronous — they extend the disk timeline, which later
// misses queue behind, but not the current request.
func (s *Server) tierInsert(addr int64, bytes int, done *sim.Time) {
	if s.cfg.TierBytes <= 0 {
		// No tier: every placement goes straight to the server disk and the
		// writer waits for it.
		dst := *done
		if s.diskBusy > dst {
			dst = s.diskBusy
		}
		dst = dst.Add(s.diskTime(bytes))
		s.diskBusy = dst
		*done = dst
		return
	}
	ent, ok := s.byAddr[addr]
	if ok {
		s.tierUsed += int64(bytes) - int64(ent.bytes)
		ent.bytes = bytes
		s.unlink(ent)
	} else {
		ent = s.newTier(addr, bytes)
		s.byAddr[addr] = ent
		s.tierUsed += int64(bytes)
	}
	s.pushFront(ent)
	// The newest entry stays even when it alone exceeds the capacity.
	for s.tierUsed > s.cfg.TierBytes && s.lru.prev != s.lru.next {
		ent := s.lru.prev
		s.unlink(ent)
		delete(s.byAddr, ent.addr)
		s.tierUsed -= int64(ent.bytes)
		s.free = append(s.free, ent)
		s.st.Demotions++
		s.diskBusy = maxTime(s.diskBusy, *done).Add(s.diskTime(ent.bytes))
	}
}

// Release drops a tier entry whose page was invalidated (no I/O: the entry
// is simply forgotten).
func (s *Server) Release(addr int64) {
	if ent, ok := s.byAddr[addr]; ok {
		s.unlink(ent)
		delete(s.byAddr, addr)
		s.tierUsed -= int64(ent.bytes)
		s.free = append(s.free, ent)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
