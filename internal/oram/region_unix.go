//go:build unix && !aix

package oram

import (
	"fmt"
	"syscall"
)

// regionOnHeap reports whether a region is Go heap memory.
const regionOnHeap = false

// mapRegion reserves n zeroed bytes of private anonymous memory. The
// mapping reserves no swap, and the kernel backs a page only once it is
// touched, so the payload cells a tree never uses cost address space
// only. The start is page-aligned, hence line-aligned.
func mapRegion(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		// Only an exhausted address space or mapping table gets here,
		// where a heap allocation of the same size would be fatal too.
		panic(fmt.Sprintf("oram: mapping a %d-byte image region: %v", n, err))
	}
	return b
}

func unmapRegion(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("oram: unmapping an image region: %v", err))
	}
}
