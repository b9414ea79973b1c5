//go:build !amd64

package field

// dotBlock is the Go loop on every GOARCH without an assembly kernel.
func dotBlock(a, x []uint64) uint64 { return dotBlockGeneric(a, x) }

// hasIFMA is false: the IFMA kernel is amd64 assembly.
func hasIFMA() bool { return false }

// dotIFMA is never called here, because useIFMA is false.
func dotIFMA(a, x []uint64) (w0, w52, w104 uint64) {
	panic("field: no IFMA kernel on this GOARCH")
}

// dotRows8 is never called here, because useIFMA is false.
func dotRows8(dst *[ifmaRows]uint64, a []uint64, stride int, x []uint64) {
	panic("field: no IFMA kernel on this GOARCH")
}
