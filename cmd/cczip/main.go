// Command cczip compresses and decompresses real files with the library's
// codecs, block by block — a sanity tool for the LZRW1 implementation and a
// way to measure what a given file's pages would do inside the compression
// cache.
//
// Usage:
//
//	cczip [-codec lzrw1] [-block 4096] <input >output
//	cczip -d [-codec lzrw1] <input >output
//	cczip -stats [-codec lzrw1] [-block 4096] <file...>
//
// The stream format (3-byte length + compressed block) is a diagnostic
// format, not an archive format.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"compcache/internal/compress"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command and returns the exit status: 0 on success, 1 when
// the codec, a file or the stream is bad, 2 on a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cczip", flag.ContinueOnError)
	fs.SetOutput(stderr)
	codecName := fs.String("codec", "lzrw1", "codec: lzrw1, lzss, bdi, fpc, rle, null")
	blockSize := fs.Int("block", 4096, "block size (the paper's page size)")
	decompress := fs.Bool("d", false, "decompress stdin to stdout")
	statsMode := fs.Bool("stats", false, "report per-page compression of the named files")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cczip:", err)
		return 1
	}

	codec, err := compress.Lookup(*codecName)
	if err != nil {
		return fail(err)
	}

	switch {
	case *statsMode:
		for _, name := range fs.Args() {
			if err := report(stdout, codec, *blockSize, name); err != nil {
				return fail(err)
			}
		}
	case *decompress:
		if _, _, err := compress.DecompressStream(codec, stdin, stdout); err != nil {
			return fail(err)
		}
	default:
		in, out, err := compress.CompressStream(codec, *blockSize, stdin, stdout)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "cczip: %d -> %d bytes (%.2f)\n", in, out, ratio(in, out))
	}
	return 0
}

func report(w io.Writer, codec compress.Codec, blockSize int, name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := compress.Analyze(codec, blockSize, 3, 4, f)
	if err != nil {
		return err
	}
	if rep.Blocks == 0 {
		fmt.Fprintf(w, "%s: empty\n", name)
		return nil
	}
	fmt.Fprintf(w, "%s: %d pages, ratio %.2f (%.1f%% fail the 4:3 retention threshold)\n",
		name, rep.Blocks, rep.Ratio(), 100*rep.FailFrac())
	return nil
}

func ratio(in, out int64) float64 {
	if in == 0 {
		return 1
	}
	return float64(out) / float64(in)
}
