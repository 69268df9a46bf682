package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"compcache/internal/mem"
)

// loanPager checks the loan contract from inside PageOut: data is the evicted
// frame's own bytes, the frame is free for an owner that never writes frame
// bytes, and the pool refuses it to one that does.
type loanPager struct {
	fakePager
	t     *testing.T
	pool  *mem.Pool
	frame mem.FrameID // the frame under the page being evicted
	want  byte        // what every byte of the page holds
	err   error       // what PageOut returns
}

func (l *loanPager) PageOut(p *Page, data []byte) error {
	t := l.t
	if &data[0] != &l.pool.Bytes(l.frame)[0] {
		t.Error("PageOut got a copy, not the evicted frame's bytes")
	}
	id, ok := l.pool.Alloc(mem.CC)
	if !ok || id != l.frame {
		t.Errorf("Alloc(CC) mid-PageOut = %d, %t; want the evicted frame %d", id, ok, l.frame)
	}
	for i, b := range data {
		if b != l.want {
			t.Fatalf("byte %d of the lent page is %#x after the cache took its frame, want %#x", i, b, l.want)
		}
	}
	l.pool.Release(id)
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "on loan") {
				t.Errorf("Alloc(VM) of the lent frame mid-PageOut: panic %q, want the loan invariant", msg)
			}
		}()
		l.pool.Alloc(mem.VM)
	}()
	if l.err != nil {
		return l.err
	}
	return l.fakePager.PageOut(p, data)
}

func TestEvictLendsTheFrame(t *testing.T) {
	for _, pagerErr := range []error{nil, errors.New("device failed")} {
		v, _, pool, _ := newTestVM(t, 4)
		lp := &loanPager{fakePager: *newFakePager(), t: t, pool: pool, want: 0xA5, err: pagerErr}
		v.SetPager(lp)
		s := v.NewSegment("heap", 4)
		p := touch(t, v, s, 1, true)
		for i := range pool.Bytes(p.Frame) {
			pool.Bytes(p.Frame)[i] = lp.want
		}
		lp.frame = p.Frame
		if err := v.Evict(p); err != pagerErr {
			t.Fatalf("Evict = %v, want %v", err, pagerErr)
		}
		// The loan is closed whatever PageOut returned: the frame may go to
		// the VM again and the pool balances.
		if id, ok := pool.Alloc(mem.VM); !ok || id != lp.frame {
			t.Fatalf("after Evict (pager error %v) Alloc(VM) = %d, %t; want frame %d", pagerErr, id, ok, lp.frame)
		} else {
			pool.Release(id)
		}
		if err := pool.CheckConservation(); err != nil {
			t.Fatalf("after Evict (pager error %v): %v", pagerErr, err)
		}
	}
}
