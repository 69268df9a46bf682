package stats

import (
	"strings"
	"testing"
	"time"
)

func TestCompressionRatio(t *testing.T) {
	c := Compression{CompressibleIn: 4096, CompressibleOut: 1024}
	if got := c.Ratio(); got != 0.25 {
		t.Fatalf("Ratio = %v, want 0.25", got)
	}
}

func TestCompressionRatioEmpty(t *testing.T) {
	var c Compression
	if got := c.Ratio(); got != 1 {
		t.Fatalf("empty Ratio = %v, want 1", got)
	}
}

func TestUncompressibleFrac(t *testing.T) {
	c := Compression{Compressions: 200, Incompressible: 98}
	if got := c.UncompressibleFrac(); got != 0.49 {
		t.Fatalf("UncompressibleFrac = %v, want 0.49", got)
	}
	var zero Compression
	if got := zero.UncompressibleFrac(); got != 0 {
		t.Fatalf("zero UncompressibleFrac = %v, want 0", got)
	}
}

func TestCCHitRate(t *testing.T) {
	c := CC{Hits: 3, Misses: 1}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	var zero CC
	if zero.HitRate() != 0 {
		t.Fatal("zero HitRate should be 0")
	}
}

func TestAvgAccess(t *testing.T) {
	r := Run{Time: 10 * time.Millisecond}
	r.VM.Refs = 1000
	if got := r.AvgAccess(); got != 10*time.Microsecond {
		t.Fatalf("AvgAccess = %v, want 10µs", got)
	}
	var zero Run
	if zero.AvgAccess() != 0 {
		t.Fatal("zero AvgAccess should be 0")
	}
}

func TestRunStringContainsSections(t *testing.T) {
	var r Run
	r.VM.Refs = 5
	s := r.String()
	for _, want := range []string{"time", "refs", "faults", "compressions", "disk", "swap"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestBytesStr(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KB"},
		{3 << 20, "3.0MB"},
		{5 << 30, "5.0GB"},
	}
	for _, c := range cases {
		if got := bytesStr(c.n); got != c.want {
			t.Errorf("bytesStr(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
