//go:build ccforget

package machine

// keepForms is false in this build: every machine remembers nothing
// (forms_kept.go).
const keepForms = false
