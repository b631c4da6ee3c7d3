//go:build !unix || aix

package oram

import "unsafe"

const regionOnHeap = true

// mapRegion backs a region with a line-aligned heap slice where there
// is no anonymous mmap to use; the collector then frees it. It returns
// no error: a heap allocation that cannot be made fails the program.
func mapRegion(n int) ([]byte, error) {
	b := make([]byte, n+lineBytes-1)
	skip := -uintptr(unsafe.Pointer(unsafe.SliceData(b))) & (lineBytes - 1)
	return b[skip : skip+uintptr(n) : skip+uintptr(n)], nil
}

func unmapRegion([]byte) {}
