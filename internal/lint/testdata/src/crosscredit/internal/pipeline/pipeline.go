// Package pipeline sits between the scoped packages and the codec, so the
// chains crosscredit must follow are genuinely interprocedural: the work
// and the credit both live two calls away from the exported entry points.
// pipeline itself is outside the analyzer's scope, so its own uncharged
// Process stays silent here — the finding belongs to whoever exports it.
package pipeline

import (
	"time"

	"compcache/crosscredit/internal/compress"
	"compcache/crosscredit/internal/sim"
)

// Codec is the dispatch seam the interface-resolution case calls through.
type Codec interface {
	Compress(p []byte) []byte
}

// Apply runs a codec through the interface; type-informed method-set
// resolution connects it to compress.LZ.Compress.
func Apply(c Codec, p []byte) []byte { return c.Compress(p) }

// Stage embeds the seam, so s.Compress is a method promoted through the
// embedded field: the selection's receiver is a struct, the dispatch is
// dynamic all the same, and every implementation must stay in view.
type Stage struct {
	Codec
	Name string
}

// ApplyStage runs the stage's codec through the promoted method.
func ApplyStage(s Stage, p []byte) []byte { return s.Compress(p) }

// Ping and Pong recurse into each other on the way to the codec: every walk
// of the graph has to terminate on the cycle.
func Ping(p []byte, n int) []byte {
	if n == 0 {
		return p
	}
	return Pong(p, n-1)
}

// Pong is the half of the cycle that does the work.
func Pong(p []byte, n int) []byte {
	if n == 0 {
		return Process(p)
	}
	return Ping(p, n-1)
}

// Process does codec work with no clock credit anywhere on the chain.
func Process(p []byte) []byte {
	var z compress.LZ
	return z.Compress(p)
}

// ProcessCharged does the same work and charges the clock for it.
func ProcessCharged(clock *sim.Clock, p []byte) []byte {
	var z compress.LZ
	out := z.Compress(p)
	clock.Advance(time.Duration(len(p)))
	return out
}
