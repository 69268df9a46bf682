package snap

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"
)

type tag int8

type stamp int64

type counters struct {
	Hits    uint64
	Misses  uint64
	Busy    time.Duration
	Retries uint64
}

// sample has one field per Codec visitor.
type sample struct {
	flag   bool
	tag    tag
	sub    uint8
	class  uint32
	u16    uint16
	frame  int32
	at     stamp
	u32    uint32
	i32    int32
	i64    int64
	u64    uint64
	n      int
	name   string
	blob   []byte
	page   []byte // fixed length
	ids    []int32
	byName map[string]uint64
	st     counters
}

func (s *sample) walk(c *Codec) {
	c.Section("sample")
	Const(c, c.Int, len(s.page), "page size")
	c.Bool(&s.flag)
	Byte(c, &s.tag)
	Byte(c, &s.sub)
	Uint32(c, &s.class)
	c.U16(&s.u16)
	Int32(c, &s.frame)
	Int64(c, &s.at)
	c.U32(&s.u32)
	c.I32(&s.i32)
	c.I64(&s.i64)
	c.U64(&s.u64)
	c.Int(&s.n)
	c.String(&s.name)
	c.Bytes(&s.blob)
	c.Fixed(&s.page, "page")
	Slice(c, &s.ids, 8, "ids", c.I32)
	Map(c, &s.byName, 8, "named values", cmp.Less[string], func(k *string, v *uint64) {
		c.String(k)
		c.U64(v)
	})
	c.Counters(&s.st)
}

func full() *sample {
	return &sample{
		flag: true, tag: -3, sub: 200, class: 1 << 31, u16: 0xBEEF, frame: -1, at: -5, u32: 7, i32: -8,
		i64: -1 << 40, u64: 1 << 63, n: -12, name: "swap.lfs", blob: []byte{1, 2, 3},
		page: []byte{9, 8, 7, 6}, ids: []int32{3, 1, 2},
		byName: map[string]uint64{"b": 2, "a": 1},
		st:     counters{Hits: 1, Misses: 2, Busy: 3 * time.Second, Retries: 4},
	}
}

func encode(t *testing.T, walk func(*Codec)) []byte {
	t.Helper()
	w := NewWriter()
	walk(Encoder(w))
	img, err := w.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return img
}

// decode walks img and reports the first error from open, walk or close.
func decode(img []byte, walk func(*Codec)) error {
	r, err := NewReader(img)
	if err != nil {
		return err
	}
	walk(Decoder(r))
	return r.Close()
}

// seal appends the CRC trailer to a stream body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// TestCodecRoundTrip: every visitor decodes what it encoded, and encoding
// the decoded state reproduces the bytes.
func TestCodecRoundTrip(t *testing.T) {
	img := encode(t, full().walk)
	got := &sample{page: make([]byte, 4)}
	if err := decode(img, got.walk); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := full(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the state:\n got %+v\nwant %+v", got, want)
	}
	if again := encode(t, got.walk); !bytes.Equal(again, img) {
		t.Error("re-encoding the decoded state produced different bytes")
	}
}

// TestUnframedStream: a codec Reset over a caller's bytes writes the walk
// after them with no frame, a decoder Reset over bytes reads a walk back
// from their start and ignores the rest, and a short stream is an error.
func TestUnframedStream(t *testing.T) {
	enc := Encoder(new(Writer))
	enc.Reset([]byte("head"))
	full().walk(enc)
	img := enc.Raw()
	if !bytes.HasPrefix(img, []byte("head")) || bytes.Contains(img, Magic[:]) {
		t.Fatalf("unframed stream %q", img)
	}
	dec := Decoder(new(Reader))
	got := &sample{page: make([]byte, 4)}
	dec.Reset(append(img[4:], "tail"...))
	if got.walk(dec); dec.Err() != nil || !reflect.DeepEqual(got, full()) {
		t.Fatalf("decoded %+v, %v", got, dec.Err())
	}
	dec.Reset(img[4 : len(img)-1])
	if got.walk(dec); dec.Err() == nil {
		t.Fatal("a stream one byte short decoded")
	}
}

// TestStreamDamageIsAnError: truncation at every offset — raw, and resealed
// so the reader itself runs dry mid-walk — bad magic, version, checksum and
// trailing bytes all yield errors, never a panic.
func TestStreamDamageIsAnError(t *testing.T) {
	img := encode(t, full().walk)
	body := img[:len(img)-4]
	fresh := func() *sample { return &sample{page: make([]byte, 4)} }
	for n := 0; n < len(img); n++ {
		if err := decode(img[:n], fresh().walk); err == nil {
			t.Fatalf("stream cut to %d of %d bytes accepted", n, len(img))
		}
	}
	for n := 0; n < len(body); n++ {
		if err := decode(seal(body[:n]), fresh().walk); err == nil {
			t.Fatalf("resealed body cut to %d of %d bytes accepted", n, len(body))
		}
	}
	damaged := map[string][]byte{
		"magic":    seal(append([]byte("XCSN"), body[4:]...)),
		"version":  seal(append(append(bytes.Clone(body[:4]), Version+1, 0), body[6:]...)),
		"checksum": append(bytes.Clone(body), 0, 0, 0, 0),
		"trailing": seal(append(bytes.Clone(body), 0)),
	}
	for name, bad := range damaged {
		if err := decode(bad, fresh().walk); err == nil {
			t.Errorf("stream with bad %s accepted", name)
		}
	}
	if err := decode(img, fresh().walk); err != nil {
		t.Fatalf("the undamaged stream: %v", err)
	}
}

// TestDecodeValidation covers the restore-side checks built into the
// visitors: Len/Bound limits, Const and Fixed mismatches, repeated Map keys.
func TestDecodeValidation(t *testing.T) {
	lenOf := func(n int) []byte { return encode(t, func(c *Codec) { c.Int(&n) }) }
	for _, tc := range []struct {
		name string
		img  []byte
		walk func(*Codec)
		want string
	}{
		{"negative length", lenOf(-1), func(c *Codec) { c.Len(0, 10, "things") }, "-1 things"},
		{"length over limit", lenOf(11), func(c *Codec) { c.Len(0, 10, "things") }, "11 things"},
		{"length over stream", lenOf(5), func(c *Codec) { c.Len(0, 10, "things") }, "0 bytes left"},
		{"bound", lenOf(0), func(c *Codec) { c.Bound(11, 10, "pages") }, "11 pages"},
		{"const", lenOf(4), func(c *Codec) { Const(c, c.Int, 8, "frames") }, "frames: snapshot has 4, this machine 8"},
		{"fixed", encode(t, func(c *Codec) { b := []byte{1, 2}; c.Bytes(&b) }),
			func(c *Codec) { b := make([]byte, 3); c.Fixed(&b, "block") }, "block is 2 bytes, want 3"},
		{"chunked", encode(t, func(c *Codec) { b := []byte{1, 2}; c.Bytes(&b) }),
			func(c *Codec) { b := make([][]byte, 2); c.Chunked(&b, 2, 3, "frames") }, "frames is 2 bytes, want 3"},
		{"repeated key", encode(t, func(c *Codec) {
			n, k := 2, int32(7)
			c.Int(&n)
			c.I32(&k)
			c.I32(&k)
		}), func(c *Codec) {
			var m map[int32]bool
			Map(c, &m, 4, "set", cmp.Less[int32], func(k *int32, _ *bool) { c.I32(k) })
		}, "key 7 repeats"},
		{"section", encode(t, func(c *Codec) { c.Section("vm") }), func(c *Codec) { c.Section("fs") }, "drift"},
	} {
		err := decode(tc.img, tc.walk)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestChunkedIsFixed: Chunked writes what Fixed writes for the whole array,
// with zeros for a nil chunk, and a decode gives storage to a nil chunk only
// when the snapshot holds a byte of it that is not zero.
func TestChunkedIsFixed(t *testing.T) {
	whole := []byte{1, 2, 0, 0, 0, 0, 0}
	chunks := [][]byte{{1, 2, 0}, nil, nil}
	img := encode(t, func(c *Codec) { c.Chunked(&chunks, 3, len(whole), "data") })
	if want := encode(t, func(c *Codec) { c.Fixed(&whole, "data") }); !bytes.Equal(img, want) {
		t.Fatalf("Chunked wrote %v, Fixed %v", img, want)
	}
	whole[6] = 9
	img = encode(t, func(c *Codec) { c.Fixed(&whole, "data") })
	got := make([][]byte, 3)
	if err := decode(img, func(c *Codec) { c.Chunked(&got, 3, len(whole), "data") }); err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{{1, 2, 0}, nil, {9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded chunks %v, want %v", got, want)
	}
}

// TestFailureIsSticky: the first failure wins, later visitors decode zeros,
// Len yields no iterations, and Check no longer runs.
func TestFailureIsSticky(t *testing.T) {
	img := encode(t, func(c *Codec) { n := 3; c.Int(&n); c.Int(&n) })
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	c := Decoder(r)
	c.Failf("first")
	c.Failf("second")
	v := 9
	if c.Int(&v); v != 0 {
		t.Errorf("visitor after failure decoded %d, want 0", v)
	}
	if n := c.Len(0, 10, "things"); n != 0 {
		t.Errorf("Len after failure = %d, want 0", n)
	}
	c.Check(func() error { t.Error("Check ran after failure"); return nil })
	if err := c.Err(); err == nil || err.Error() != "first" {
		t.Errorf("Err = %v, want the first failure", err)
	}

	enc := Encoder(NewWriter())
	enc.Check(func() error { t.Error("Check ran while encoding"); return nil })
	enc.Failf("cannot capture")
	if _, err := enc.w.Bytes(); err == nil {
		t.Error("Writer.Bytes succeeded after an encode-side Failf")
	}
}

func TestCountersRejectsOtherFields(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Counters accepted a block with a string field")
		}
	}()
	Encoder(NewWriter()).Counters(&struct {
		N    uint64
		Name string
	}{})
}

// TestUncoveredNamesUnvisitedField is the coverage helper's self-test: a
// state field the walk neither visits nor Marks is named; nothing else is.
func TestUncoveredNamesUnvisitedField(t *testing.T) {
	var s struct {
		now     stamp
		dirty   bool
		free    []int32
		st      counters
		head    *int
		skipped uint64
	}
	walk := func(c *Codec) {
		Int64(c, &s.now)
		c.Bool(&s.dirty)
		Slice(c, &s.free, 8, "free", c.I32)
		c.Counters(&s.st)
		c.Mark(&s.head)
	}
	if got := Uncovered(&s, walk); !reflect.DeepEqual(got, []string{"skipped"}) {
		t.Errorf("Uncovered = %v, want [skipped]", got)
	}
	if got := Uncovered(&s, func(c *Codec) { walk(c); c.U64(&s.skipped) }); len(got) != 0 {
		t.Errorf("Uncovered = %v after visiting every field", got)
	}
}
