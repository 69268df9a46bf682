//go:build cclintfixture

package buildtag

const mode = "tagged"
