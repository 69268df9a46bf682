package fs

import (
	"cmp"

	"compcache/internal/mem"
	"compcache/internal/snap"
)

// Snap walks the file system's replay state: every file's metadata and
// platter blocks (in name- and block-sorted order, like Image), then the
// buffer cache in LRU order as (file name, block) pairs, then the hit
// counters. Frame IDs are recorded as-is; the pool restores them verbatim.
//
// Decoding updates files that already exist (created by the store
// constructors during machine rebuild) in place, so the *File handles other
// subsystems hold stay valid; files the snapshot lacks drop out with the old
// map.
func (fs *FS) Snap(c *snap.Codec) {
	c.Section("fs")
	c.I32(&fs.nextID)
	c.I64(&fs.nextBase)
	old := fs.files
	snap.Map(c, &fs.files, 1<<20, "files", cmp.Less[string], func(name *string, fp **File) {
		c.String(name)
		if c.Decoding() {
			if *fp = old[*name]; *fp == nil {
				*fp = &File{fs: fs, name: *name}
			}
		}
		f := *fp
		c.I32(&f.id)
		c.I64(&f.base)
		c.I64(&f.size)
		snap.Sparse(c, &f.platter, fileExtent/fs.opts.BlockSize, "platter blocks", func(b []byte) bool { return b != nil }, func(block *int64, data *[]byte) {
			c.I64(block)
			if c.Decoding() {
				*data = make([]byte, fs.opts.BlockSize)
			}
			c.Fixed(data, "fs: platter block")
		})
		if err := f.checkSize(); err != nil {
			c.Failf("%w", err)
		}
	})

	c.Mark(&fs.cache, &fs.lruHead, &fs.lruTail)
	n := c.Len(len(fs.cache), 1<<24, "cached blocks")
	cb := fs.lruHead
	if c.Decoding() {
		fs.cache = make(map[blockKey]*cacheBlock, n)
		fs.lruHead, fs.lruTail = nil, nil
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var name string
		if c.Decoding() {
			cb = &cacheBlock{prev: fs.lruTail}
		} else {
			name = cb.key.file.name
		}
		c.String(&name)
		c.I64(&cb.key.block)
		snap.Int32(c, &cb.frame)
		c.Bool(&cb.dirty)
		snap.Int64(c, &cb.lastUse)
		if !c.Decoding() {
			cb = cb.next
			continue
		}
		if cb.key.file = fs.files[name]; cb.key.file == nil || fs.cache[cb.key] != nil {
			c.Failf("fs: snapshot caches block %d of %q: unknown file or block cached twice", cb.key.block, name)
			return
		}
		fs.cache[cb.key] = cb
		if fs.lruTail != nil {
			fs.lruTail.next = cb
		} else {
			fs.lruHead = cb
		}
		fs.lruTail = cb
	}
	c.U64(&fs.hits)
	c.U64(&fs.misses)
	c.U64(&fs.ccHits)
	c.U64(&fs.writeHits)
}

// CacheFrames reports the frame under every buffer-cache block, for the
// machine's frame-ownership audit.
func (fs *FS) CacheFrames(visit func(mem.FrameID) error) error {
	for cb := fs.lruHead; cb != nil; cb = cb.next {
		if err := visit(cb.frame); err != nil {
			return err
		}
	}
	return nil
}
