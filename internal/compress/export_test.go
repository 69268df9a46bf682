package compress

// What tests in package compress_test — which may import the machine
// without an import cycle — need from inside the package.

// RefLZRW1 is the reference LZRW1.
var RefLZRW1 = refLZRW1{}

// Unregister removes a codec a test registered, so the registry the other
// tests enumerate is left as it was.
func Unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
}
