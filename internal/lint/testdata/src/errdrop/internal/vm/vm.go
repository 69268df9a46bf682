// Package vm is the errdrop golden fixture: the paged-data path where one
// dropped error return breaks the degradation ladder invisibly.
package vm

import (
	"errors"
	"fmt"
	"strings"

	"compcache/errdrop/internal/stats"
)

// Pager fakes the vm layer over a fallible backing store.
type Pager struct {
	run stats.Run
}

// read fakes a fallible page fetch.
func (p *Pager) read(addr int) error {
	if addr < 0 {
		return errors.New("vm: bad address")
	}
	return nil
}

// write fakes a fallible page store.
func (p *Pager) write(addr int) error { return p.read(addr) }

// fetch fakes a read that also returns data.
func (p *Pager) fetch(addr int) (int, error) { return addr, p.read(addr) }

// badDiscard drops the error on the floor.
func (p *Pager) badDiscard(addr int) {
	p.read(addr) // want `p\.read returns an error that is silently discarded`
}

// badBlank drops it into the blank identifier.
func (p *Pager) badBlank(addr int) {
	_ = p.read(addr) // want `error result assigned to the blank identifier`
}

// badTupleBlank keeps the value but blanks the error.
func (p *Pager) badTupleBlank(addr int) int {
	n, _ := p.fetch(addr) // want `error result assigned to the blank identifier`
	return n
}

// badOverwrite loses the first failure to the second assignment.
func (p *Pager) badOverwrite(addr int) error {
	err := p.read(addr) // want `error assigned to err is overwritten before anything reads it`
	err = p.write(addr)
	return err
}

// goodChecked handles every return.
func (p *Pager) goodChecked(addr int) error {
	if err := p.read(addr); err != nil {
		return fmt.Errorf("vm: read: %w", err)
	}
	return p.write(addr)
}

// goodWrap overwrites err while reading it: wrapping, not dropping.
func (p *Pager) goodWrap(addr int) error {
	err := p.read(addr)
	err = fmt.Errorf("vm: %w", err)
	return err
}

// goodSequential reads the first error before reusing the variable.
func (p *Pager) goodSequential(addr int) error {
	err := p.read(addr)
	if err != nil {
		return err
	}
	err = p.write(addr)
	return err
}

// goodBuilder discards a strings.Builder error: the conventional
// always-nil source is exempt.
func (p *Pager) goodBuilder() string {
	var b strings.Builder
	b.WriteString("page")
	return b.String()
}

// goodIgnored documents a deliberate drop with a directive.
func (p *Pager) goodIgnored(addr int) {
	p.read(addr) //cclint:ignore errdrop -- fixture: prefetch probe, a miss here is re-fetched on the fault path
}

// badDeferDiscard drops a deferred call's error: the defer statement's
// call is not an expression statement, so a call-statement-only check
// misses it.
func (p *Pager) badDeferDiscard(addr int) {
	defer p.read(addr) // want `p\.read returns an error that is silently discarded`
}

// badGoDiscard drops the error of a spawned call the same way.
func (p *Pager) badGoDiscard(addr int) {
	go p.write(addr) // want `p\.write returns an error that is silently discarded` `spawns a raw goroutine outside internal/runner`
}

// badDeferBlank blanks the error inside a defer closure — the cleanup
// path is exactly where close errors die.
func (p *Pager) badDeferBlank(addr int) {
	defer func() {
		_ = p.read(addr) // want `error result assigned to the blank identifier`
	}()
}

// badDeferOverwrite loses the first failure to a shadow-overwrite
// inside a defer closure.
func (p *Pager) badDeferOverwrite(addr int) (last error) {
	defer func() {
		err := p.read(addr) // want `error assigned to err is overwritten before anything reads it`
		err = p.write(addr)
		last = err
	}()
	return nil
}

// goodDeferHandled checks the deferred close's error.
func (p *Pager) goodDeferHandled(addr int) (err error) {
	defer func() {
		if cerr := p.read(addr); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return nil
}

// Healthy reads the nested view, which is always fine.
func (p *Pager) Healthy() bool { return !p.run.Faults.Any() }
