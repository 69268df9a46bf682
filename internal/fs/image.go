package fs

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
)

// Image is a deep copy of the file system's media: every file's metadata and
// platter blocks, in deterministic (name- and block-sorted) order. It is what
// survives a crash — buffer-cache contents and in-memory staging do not.
// machine.NewFromMedia boots a fresh machine from an Image and runs the swap
// stores' mount-time recovery against it.
type Image struct {
	Files []FileImage
}

// FileImage is one file's on-media state.
type FileImage struct {
	Name   string
	ID     int32
	Base   int64
	Size   int64
	Blocks []BlockImage
}

// BlockImage is one written platter block.
type BlockImage struct {
	Block int64
	Data  []byte
}

// SizeError reports a file size in an image or a snapshot that no write could
// have produced: negative, or past the end of the file's highest platter
// block (every write that grows a file materialises the blocks it grows
// into, and the platter never reaches past the file's disk extent). Recovery
// sizes its mount sweep — and what it allocates — from the file size, so a
// forged one is refused where it is decoded.
type SizeError struct {
	File    string
	Size    int64
	Written int64 // the end of the highest platter block the file came with
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("fs: file %q has size %d, but its media holds bytes 0 to %d", e.File, e.Size, e.Written)
}

// checkSize validates a decoded file's size against its decoded platter.
func (f *File) checkSize() error {
	if written := int64(len(f.platter)) * int64(f.fs.opts.BlockSize); f.size < 0 || f.size > written {
		return &SizeError{File: f.name, Size: f.size, Written: written}
	}
	return nil
}

// Image captures the current media state. The copy is deep: mutating the
// source file system afterwards does not change the image, so a crashed
// machine's image can outlive the machine.
func (fs *FS) Image() *Image {
	img := &Image{}
	for _, name := range slices.Sorted(maps.Keys(fs.files)) {
		f := fs.files[name]
		fi := FileImage{Name: f.name, ID: f.id, Base: f.base, Size: f.size}
		for b, data := range f.platter {
			if data != nil {
				fi.Blocks = append(fi.Blocks, BlockImage{Block: int64(b), Data: bytes.Clone(data)})
			}
		}
		img.Files = append(img.Files, fi)
	}
	return img
}

// LoadImage installs a media image into a freshly created file system — the
// reboot path. It must run before any file is created; the loaded files keep
// their identities and disk extents so raw offsets resolve to the same media
// addresses they did before the crash.
func (fs *FS) LoadImage(img *Image) error {
	if len(fs.files) != 0 {
		return fmt.Errorf("fs: LoadImage on a file system that already has %d file(s)", len(fs.files))
	}
	for i := range img.Files {
		fi := &img.Files[i]
		f := &File{fs: fs, name: fi.Name, id: fi.ID, base: fi.Base, size: fi.Size}
		for _, b := range fi.Blocks {
			if len(b.Data) != fs.opts.BlockSize {
				return fmt.Errorf("fs: image block %d of %q is %d bytes, want the %d-byte block size",
					b.Block, fi.Name, len(b.Data), fs.opts.BlockSize)
			}
			if b.Block < 0 || b.Block >= fileExtent/int64(fs.opts.BlockSize) {
				return fmt.Errorf("fs: image block %d of %q lies outside the file's extent", b.Block, fi.Name)
			}
			copy(f.platterBlock(b.Block), b.Data)
		}
		if err := f.checkSize(); err != nil {
			return err
		}
		fs.files[fi.Name] = f
		if fi.ID >= fs.nextID {
			fs.nextID = fi.ID + 1
		}
		if fi.Base >= fs.nextBase {
			fs.nextBase = fi.Base + fileExtent
		}
	}
	return nil
}
