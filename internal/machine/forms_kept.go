//go:build !ccforget

package machine

// keepForms is whether a machine remembers forms (memo.go). A build with the
// ccforget tag makes every machine remember nothing, and must print the same
// ccbench output byte for byte: the remembered forms are the host's alone.
const keepForms = true
