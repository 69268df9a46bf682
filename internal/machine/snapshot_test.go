package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"compcache/internal/fault"
	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/snap"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// drivePhase applies a deterministic mixed read/write pattern to the space.
// Two machines driven through the same phases must end in identical states.
func drivePhase(m *Machine, s *Space, base int) {
	npages := int64(s.Pages())
	for i := 0; i < 4000; i++ {
		page := (int64(base)*7 + int64(i)*31) % npages
		off := page*4096 + int64(i%500)*8
		if i%3 == 0 {
			s.ReadWord(off)
		} else {
			s.WriteWord(off, uint64(base)*1_000_003+uint64(i))
		}
	}
	m.Drain()
}

// snapCase pairs a configuration with the machine options it is built with;
// Restore needs the same options to reproduce the fingerprint.
type snapCase struct {
	cfg  Config
	opts []Option
}

// snapshotConfigs are the machine shapes the byte-identity test covers: the
// baseline direct swap, the durable log-structured swap, and the compression
// cache with observability and an (idle) fault injector attached.
func snapshotConfigs() map[string]snapCase {
	small := Default(40 * 4096) // 40 frames against a 96-page working set
	return map[string]snapCase{
		"direct": {cfg: small},
		"lfs":    {cfg: small.WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true})},
		"cc": {
			cfg:  small.WithCC().WithFaults(fault.Config{Seed: 7}),
			opts: []Option{WithObs(obs.Options{})},
		},
	}
}

// TestSnapshotResumeByteIdentity is the tentpole determinism check: run
// phase 1, snapshot mid-flight, resume both the original machine and a
// restored copy through phase 2, and require byte-identical final snapshots
// and identical statistics.
func TestSnapshotResumeByteIdentity(t *testing.T) {
	for name, tc := range snapshotConfigs() {
		t.Run(name, func(t *testing.T) { checkResume(t, tc) })
	}
}

// TestSnapshotNetworkBackedResume: a machine paging to a network page
// server snapshots its link's queue as a disk-backed machine snapshots its
// disk's, and resumes byte-identically.
func TestSnapshotNetworkBackedResume(t *testing.T) {
	checkResume(t, snapCase{cfg: Default(40 * 4096).WithCC().WithNetwork(netdev.Ethernet10())})
}

// checkResume is TestSnapshotResumeByteIdentity's check on one machine shape.
func checkResume(t *testing.T, tc snapCase) {
	m1 := newMachine(t, tc.cfg, tc.opts...)
	s1 := m1.NewSegment("snap", 96*4096)
	drivePhase(m1, s1, 1)
	if st := m1.Device.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("phase 1 left the device idle (%+v): the snapshot carries no traffic", st)
	}

	blob, err := m1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	m2, err := Restore(tc.cfg, blob, tc.opts...)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	s2, ok := m2.SpaceFor("snap")
	if !ok {
		t.Fatal("restored machine lost the segment")
	}

	drivePhase(m1, s1, 2)
	drivePhase(m2, s2, 2)

	b1, err := m1.Snapshot()
	if err != nil {
		t.Fatalf("original re-snapshot: %v", err)
	}
	b2, err := m2.Snapshot()
	if err != nil {
		t.Fatalf("restored re-snapshot: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("final snapshots differ: %d vs %d bytes", len(b1), len(b2))
	}
	st1, st2 := m1.Stats().String(), m2.Stats().String()
	if st1 != st2 {
		t.Errorf("statistics diverged:\noriginal:\n%s\nrestored:\n%s", st1, st2)
	}
	if m1.Elapsed() != m2.Elapsed() {
		t.Errorf("virtual time diverged: %v vs %v", m1.Elapsed(), m2.Elapsed())
	}
}

// TestSnapshotRestoreIsRerunnable restores the same blob twice and checks the
// two copies agree — Restore must not consume or alias the snapshot.
func TestSnapshotRestoreIsRerunnable(t *testing.T) {
	tc := snapshotConfigs()["cc"]
	m := newMachine(t, tc.cfg, tc.opts...)
	s := m.NewSegment("snap", 96*4096)
	drivePhase(m, s, 3)
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Restore(tc.cfg, blob, tc.opts...)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Restore(tc.cfg, blob, tc.opts...)
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := ra.Snapshot()
	bb, _ := rb.Snapshot()
	if !bytes.Equal(ba, bb) {
		t.Error("two restores of one blob disagree")
	}
	if !bytes.Equal(ba, blob) {
		t.Error("restore-then-snapshot does not round-trip the blob")
	}
}

// TestSnapshotConfigMismatchRejected feeds a snapshot to configurations it
// was not captured under; Restore must refuse rather than mis-simulate.
func TestSnapshotConfigMismatchRejected(t *testing.T) {
	cfg := Default(40 * 4096)
	m := newMachine(t, cfg)
	s := m.NewSegment("snap", 96*4096)
	drivePhase(m, s, 4)
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]snapCase{
		"memory": {cfg: Default(64 * 4096)},
		"cc":     {cfg: cfg.WithCC()},
		"lfs":    {cfg: cfg.WithLFS(swap.LFSConfig{})},
		"faults": {cfg: cfg.WithFaults(fault.Config{Seed: 1})},
		"obs":    {cfg: cfg, opts: []Option{WithObs(obs.Options{})}},
	}
	for name, c := range bad {
		if _, err := Restore(c.cfg, blob, c.opts...); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	if _, err := Restore(cfg, blob[:len(blob)-1]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// The device's section names it, so a snapshot never restores onto the
	// other kind of backing store, in either direction.
	netCfg := cfg.WithNetwork(netdev.Ethernet10())
	if _, err := Restore(netCfg, blob); err == nil || !strings.Contains(err.Error(), `section "disk", want "net"`) {
		t.Errorf("disk snapshot into a network config: %v, want a section mismatch", err)
	}
	m = newMachine(t, netCfg)
	drivePhase(m, m.NewSegment("snap", 96*4096), 4)
	if blob, err = m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(cfg, blob); err == nil || !strings.Contains(err.Error(), `section "net", want "disk"`) {
		t.Errorf("network snapshot into a disk config: %v, want a section mismatch", err)
	}
}

// TestSnapshotDeadMachineRefused crashes a machine and checks Snapshot
// declines — a dead machine's process is gone; reboot from media instead.
func TestSnapshotDeadMachineRefused(t *testing.T) {
	cfg := Default(40 * 4096).
		WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true}).
		WithFaults(fault.Config{Seed: 1, CrashAtWrite: 1})
	m := newMachine(t, cfg)
	s := m.NewSegment("snap", 96*4096)
	drivePhase(m, s, 5)
	if !m.Introspect().Injector.Crashed() {
		t.Skip("workload finished without a device write")
	}
	if _, err := m.Snapshot(); err == nil {
		t.Error("snapshot of a crashed machine accepted")
	}
}

// TestCrashRebootFromMedia cuts power at an early device write, reboots from
// the torn media image, and verifies the recovered store against the crashed
// machine's in-memory state — the machine-level version of the crash sweep.
func TestCrashRebootFromMedia(t *testing.T) {
	base := Default(40 * 4096)
	cases := map[string]Config{
		"lfs": base.WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true}),
		"cc":  base.WithCC(),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.Swap.CommitRecords = true
			for _, k := range []uint64{1, 2, 5, 9} {
				crashed := cfg.WithFaults(fault.Config{Seed: 3, CrashAtWrite: k})
				m := newMachine(t, crashed)
				s := m.NewSegment("snap", 96*4096)
				drivePhase(m, s, 6)
				if !m.Introspect().Injector.Crashed() {
					t.Fatalf("crash point %d never fired", k)
				}
				reborn, err := NewFromMedia(cfg, m.FS.Image())
				if err != nil {
					t.Fatalf("crash point %d: reboot: %v", k, err)
				}
				if err := reborn.VerifyRecovery(m); err != nil {
					t.Errorf("crash point %d: %v", k, err)
				}
				if reborn.Introspect().Recovery == nil {
					t.Errorf("crash point %d: reboot recorded no recovery report", k)
				}
				if err := reborn.CheckInvariants(); err != nil {
					t.Errorf("crash point %d: %v", k, err)
				}
			}
		})
	}
}

// TestCrashOnNetworkBackedMachineRecovers cuts power at a write to a network
// page server: the write is a crash point like a disk's, the run dies of it,
// and the media image reboots clean.
func TestCrashOnNetworkBackedMachineRecovers(t *testing.T) {
	cfg := Default(40 * 4096).WithCC().WithNetwork(netdev.Ethernet10())
	cfg.Swap.CommitRecords = true
	m := newMachine(t, cfg.WithFaults(fault.Config{Seed: 3, CrashAtWrite: 5}))
	s := m.NewSegment("snap", 96*4096)
	fillRandom(s, 6) // incompressible: pages leave memory through the link
	drivePhase(m, s, 6)
	if err := m.Err(); !fault.IsCrash(err) {
		t.Fatalf("run ended with %v (%d device writes, crashed %v), want a crash at write 5",
			err, m.Stats().Disk.Writes, m.Introspect().Injector.Crashed())
	}
	reborn, err := NewFromMedia(cfg, m.FS.Image())
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if err := reborn.VerifyRecovery(m); err != nil {
		t.Error(err)
	}
	if err := reborn.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestVerifyRecoveryRefusals: the direct swap file has no recoverable layout
// to verify, and a store is only ever verified against one of its own kind.
func TestVerifyRecoveryRefusals(t *testing.T) {
	direct := newMachine(t, Default(mb))
	lfs := newMachine(t, Default(mb).WithLFS(swap.LFSConfig{Durable: true}))
	cc := newMachine(t, Default(mb).WithCC())
	if err := direct.VerifyRecovery(newMachine(t, Default(mb))); err == nil || err.Error() != "no recoverable store" {
		t.Errorf("two direct-swap machines: %v, want \"no recoverable store\"", err)
	}
	for _, pair := range [][2]*Machine{{lfs, cc}, {cc, lfs}, {lfs, direct}, {cc, direct}} {
		if err := pair[0].VerifyRecovery(pair[1]); err == nil || !strings.Contains(err.Error(), "cannot be verified against") {
			t.Errorf("%T against %T: %v, want a refusal", pair[0].store, pair[1].store, err)
		}
	}
}

// TestNewFromMediaRequiresImage pins the constructor's contract: a nil image
// is a programming error, and the baseline direct swap has no recoverable
// layout to boot from.
func TestNewFromMediaRequiresImage(t *testing.T) {
	if _, err := NewFromMedia(Default(mb), nil); err == nil {
		t.Error("nil image accepted")
	}
	m := newMachine(t, Default(mb))
	if _, err := NewFromMedia(Default(mb), m.FS.Image()); err == nil ||
		!strings.Contains(err.Error(), "recoverable") {
		t.Errorf("direct-swap boot from media: err = %v, want recoverable-store complaint", err)
	}
}

// TestSnapshotCoversState runs the machine's own walk under snap.Uncovered: a
// machineState field it never visits is a field snapshots lose. (Each
// subsystem package has the same test for its state struct.)
func TestSnapshotCoversState(t *testing.T) {
	m := newMachine(t, Default(40*4096))
	if missing := snap.Uncovered(&m.machineState, m.snap); len(missing) != 0 {
		t.Errorf("Machine.snap never visits state field(s) %v", missing)
	}
	net := newMachine(t, Default(40*4096).WithNetwork(netdev.Ethernet10())).Device.(*netdev.Net)
	if missing := snap.Uncovered(&net.Timeline, net.Snap); len(missing) != 0 {
		t.Errorf("Net.Snap never visits state field(s) %v", missing)
	}
}

// fillCounters walks the object graph under v (pointers, structs and
// interfaces; unexported fields included) and sets every field of every
// stats.* block it finds to a distinct non-zero value.
func fillCounters(v reflect.Value, holder string, seen map[unsafe.Pointer]bool, next *uint64) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			fillCounters(v.Elem(), holder, seen, next)
		}
	case reflect.Pointer:
		if p := v.UnsafePointer(); p != nil && !seen[p] {
			seen[p] = true
			fillCounters(v.Elem(), holder, seen, next)
		}
	case reflect.Struct:
		if !v.CanAddr() {
			return // a copy held in an interface; nothing under it is machine state
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // lift the unexported-field read-only flag
			switch {
			case v.Type().PkgPath() != "compcache/internal/stats":
				fillCounters(f, v.Type().Name(), seen, next)
			case holder == "directState" && v.Type().Field(i).Name != "PagesOut" && v.Type().Field(i).Name != "PagesIn":
				// The direct store has no fragments and never collects
				// garbage: it counts page traffic only, the rest stay zero.
			case f.CanInt():
				*next++
				f.SetInt(int64(*next))
			default:
				*next++
				f.SetUint(*next)
			}
		}
	}
}

// TestSnapshotCarriesEveryCounter sets every counter of every stats block in
// a machine non-zero and requires Stats() to survive a snapshot/restore
// cycle — the check that would have caught the vm walk dropping RemoteIns.
func TestSnapshotCarriesEveryCounter(t *testing.T) {
	for name, tc := range snapshotConfigs() {
		m := newMachine(t, tc.cfg, tc.opts...)
		drivePhase(m, m.NewSegment("snap", 96*4096), 1)
		var n uint64
		fillCounters(reflect.ValueOf(m), "", map[unsafe.Pointer]bool{}, &n)
		if n < 30 {
			t.Fatalf("%s: found only %d counters to set", name, n)
		}
		blob, err := m.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		restored, err := Restore(tc.cfg, blob, tc.opts...)
		if err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if before, after := m.Stats(), restored.Stats(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: counters lost across snapshot/restore:\nbefore:\n%s\nafter:\n%s", name, before.String(), after.String())
		}
	}
}

// TestSnapshotFormatPinned holds the length and SHA-256 of the snapshot each
// covered configuration produces after one drive phase, so any drift in what
// the state walks write fails here until snap.Version is bumped and the
// values are re-pinned. (Version 2 is Version 1 plus the 8-byte
// stats.VM.RemoteIns counter in the vm section; version 3 keeps cache
// entries' bytes in the cache's frames only.)
func TestSnapshotFormatPinned(t *testing.T) {
	want := map[string]struct {
		size int
		sum  string
	}{
		"cc":     {959942, "95836deb560c34c118175b2437d5d182eb8d3b766e29fdc90e9c3da76b174b63"},
		"direct": {429670, "d045a7c6948c94ca80bf45ad54501b63c820644ebecc143846329378079217b2"},
		"lfs":    {594733, "870a53a04ac31854db2af1c7eac78287b0447aae81a2f822c89d2132cd5916e5"},
	}
	if snap.Version != 3 {
		t.Fatalf("snap.Version is %d: re-pin these values for the new format", snap.Version)
	}
	for name, blob := range snapshotBlobs(t) {
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); len(blob) != want[name].size || got != want[name].sum {
			t.Errorf("%s: snapshot is %d B %s, pinned %d B %s", name, len(blob), got, want[name].size, want[name].sum)
		}
	}
}

// snapshotBlobs captures every snapshotConfigs machine after one drive phase.
func snapshotBlobs(t testing.TB) map[string][]byte {
	blobs := make(map[string][]byte)
	for name, tc := range snapshotConfigs() {
		m, err := New(tc.cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		drivePhase(m, m.NewSegment("snap", 96*4096), 1)
		if blobs[name], err = m.Snapshot(); err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
	}
	return blobs
}

// reseal recomputes the CRC trailer over a (doctored) snapshot body, so a
// forgery gets past the checksum and has to be caught by validation.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// TestSnapshotRejectsForgedState feeds Restore checksum-valid snapshots of
// states no run can reach. Each must be refused with an error — promptly —
// rather than yield a machine that panics or spins on first use.
func TestSnapshotRejectsForgedState(t *testing.T) {
	tc := snapshotConfigs()["cc"]
	resident := func(m *Machine) []*vm.Page {
		var out []*vm.Page
		seg := m.VM.Segments()[0]
		for i := int32(0); i < seg.NPages; i++ {
			if p := seg.Page(i); p.State == vm.Resident {
				out = append(out, p)
			}
		}
		return out
	}
	forgeries := map[string]struct {
		config string
		forge  func(*Machine)
	}{
		"frame out of range": {"cc", func(m *Machine) { resident(m)[0].Frame = 1 << 30 }},
		"frame held twice":   {"direct", func(m *Machine) { resident(m)[0].Frame = resident(m)[1].Frame }},
		"frame of the cache": {"cc", func(m *Machine) { resident(m)[0].Frame = cacheFrame(t, m) }},
	}
	for name, f := range forgeries {
		tc := snapshotConfigs()[f.config]
		m := newMachine(t, tc.cfg, tc.opts...)
		drivePhase(m, m.NewSegment("snap", 96*4096), 1)
		f.forge(m)
		blob, err := m.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		if _, err := Restore(tc.cfg, blob, tc.opts...); err == nil {
			t.Errorf("%s: forged snapshot accepted", name)
		}
	}

	// Byte-level forgeries, located from a section marker. The fault
	// injector replays its PRNG draw by draw, so a forged count of 2^62 (the
	// section's first field) must be refused, not replayed. The vm section
	// opens with nextSeg, the segment count, then segment 0's id, name
	// ("snap") and page count; the next byte is page 0's state.
	blob := snapshotBlobs(t)["cc"]
	patched := func(marker string, skip int, val ...byte) []byte {
		body := bytes.Clone(blob[:len(blob)-4])
		copy(body[bytes.Index(body, []byte(marker))+len(marker)+skip:], val)
		return reseal(body)
	}
	draws := binary.LittleEndian.AppendUint64(nil, 1<<62)
	if _, err := Restore(tc.cfg, patched("fault.injector", 0, draws...), tc.opts...); err == nil || !strings.Contains(err.Error(), "PRNG draws") {
		t.Errorf("forged draw count: err = %v, want the draw-count limit", err)
	}
	// Past the draw count, five injection counters and the write count sits
	// the injector's zero slot; a snapshot with it set is refused.
	if _, err := Restore(tc.cfg, patched("fault.injector", 8+5*8+8, 1), tc.opts...); err == nil || !strings.Contains(err.Error(), "scheduled crash instant") {
		t.Errorf("forged crash instant: err = %v, want the zero-slot complaint", err)
	}
	if _, err := Restore(tc.cfg, patched("\x02\x00\x00\x00vm", 4+8+4+8+4, 9), tc.opts...); err == nil || !strings.Contains(err.Error(), "unknown state 9") {
		t.Errorf("forged page state: err = %v, want the unknown-state complaint", err)
	}
	// The swap file's name is followed by its id, base and size: one past its
	// extent, and one inside the extent but a gigabyte past what was written.
	for _, size := range forgedSizes {
		var se *fs.SizeError
		if _, err := Restore(tc.cfg, patched("swap.clustered", 4+8, binary.LittleEndian.AppendUint64(nil, size)...), tc.opts...); !errors.As(err, &se) || se.Size != int64(size) {
			t.Errorf("forged file size %d: err = %v, want a *fs.SizeError", size, err)
		}
	}
}

// cacheFrame returns a frame the pool records as owned by the compression
// cache.
func cacheFrame(t *testing.T, m *Machine) mem.FrameID {
	for id := mem.FrameID(0); int(id) < m.Pool.Total(); id++ {
		if m.Pool.Owner(id) == mem.CC {
			return id
		}
	}
	t.Fatal("the compression cache holds no frame")
	return mem.NoFrame
}

// forgedSizes are the file sizes no write leaves behind that the restore
// tests plant: past the file's extent, and inside it but a gigabyte past the
// last block the snapshot carries.
var forgedSizes = []uint64{1 << 40, 1 << 30}

// FuzzRestore mutates snapshot bodies and reseals them, so every input gets
// past the checksum: Restore must return an error or a machine that passes
// its invariants and survives a drive phase without panicking or hanging.
func FuzzRestore(f *testing.F) {
	cases := snapshotConfigs()
	names := []string{"cc", "direct", "lfs"}
	files := []string{"swap.clustered", "swap.seg0", "swap.lfs"} // each configuration's swap file
	for i, name := range names {
		blob := snapshotBlobs(f)[name]
		f.Add(uint8(i), blob[:len(blob)-4])
		for _, body := range hostileKeyBodies(f, name, blob[:len(blob)-4]) {
			f.Add(uint8(i), body)
		}
		// The swap file claims a size it was never written to; recovery and
		// compaction size their sweeps from it.
		at := bytes.Index(blob, []byte(files[i]))
		if at < 0 {
			f.Fatalf("%s snapshot names no file %q", name, files[i])
		}
		for _, size := range forgedSizes {
			forged := bytes.Clone(blob[:len(blob)-4])
			binary.LittleEndian.PutUint64(forged[at+len(files[i])+4+8:], size) // past the file's id and base
			f.Add(uint8(i), forged)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		tc := cases[names[int(which)%len(names)]]
		m, err := Restore(tc.cfg, reseal(body), tc.opts...)
		if err != nil {
			return
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("Restore returned a machine that fails its invariants: %v", err)
		}
		if segs := m.VM.Segments(); len(segs) > 0 {
			drivePhase(m, &Space{m: m, seg: segs[0]}, 2)
		}
	})
}

// hostileKeyBodies returns copies of a snapshot body in which the first page
// key of each page index the configuration carries — the backing store's,
// and the compression cache's — names a page no run produces: the corners of
// the key space and a page far past the end of its segment. The indexes are
// dense tables; a forged key must cost them an error or a spill entry, not
// memory in proportion to the key.
func hostileKeyBodies(t testing.TB, config string, body []byte) [][]byte {
	u64 := func(at int) int { return int(binary.LittleEndian.Uint64(body[at:])) }
	after := func(marker string) int {
		at := bytes.LastIndex(body, []byte(marker)) // the store's file carries the same name, earlier
		if at < 0 {
			t.Fatalf("%s snapshot has no %q section", config, marker)
		}
		return at + len(marker)
	}
	var keyAt []int
	switch config {
	case "direct": // swap files (segment, name), then the present set
		at := after("swap.direct")
		nfiles := u64(at)
		at += 8
		for i := 0; i < nfiles; i++ {
			at += 4 + 4 + int(binary.LittleEndian.Uint32(body[at+4:]))
		}
		keyAt = append(keyAt, at+8)
	case "lfs": // two geometry constants, the segment count, segment 0's flag and slot count
		keyAt = append(keyAt, after("swap.lfs")+8+8+8+1+8)
	case "cc": // the fragment bitmap, then the extents; the cache's entry table
		keyAt = append(keyAt, after("core.cache")+8)
		if at := after("swap.clustered"); u64(at+8+u64(at)) > 0 {
			keyAt = append(keyAt, at+8+u64(at)+8)
		}
	}
	var out [][]byte
	for _, at := range keyAt {
		for _, key := range []swap.PageKey{
			{Seg: math.MaxInt32, Page: math.MaxInt32},
			{Seg: math.MinInt32, Page: -1},
			{Seg: 0, Page: 1 << 30},
		} {
			forged := bytes.Clone(body)
			binary.LittleEndian.PutUint32(forged[at:], uint32(key.Seg))
			binary.LittleEndian.PutUint32(forged[at+4:], uint32(key.Page))
			out = append(out, forged)
		}
	}
	return out
}
