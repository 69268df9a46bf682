//go:build !cclintfixture

// Package buildtag declares one constant twice, in files no build includes
// together: the loader must read only the one the default build includes.
package buildtag

const mode = "default"
