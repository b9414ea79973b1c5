//go:build !amd64

package field

// dotBlock is the Go loop on every GOARCH without an assembly kernel.
func dotBlock(a, x []uint64) uint64 { return dotBlockGeneric(a, x) }
