// Package ext declares a map-typed field for the maprange fixture to range
// over from another package: the field's map-ness is only visible through
// the type checker.
package ext

// Index holds a map under a name package mr never declares.
type Index struct{ ByKey map[string]int }
