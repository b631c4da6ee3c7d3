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
// only. The start is page-aligned, hence line-aligned. Only a size
// beyond the address space, or an exhausted one or mapping table, is
// refused.
func mapRegion(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("oram: mapping a %d-byte image region: %w", n, err)
	}
	return b, nil
}

func unmapRegion(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("oram: unmapping an image region: %v", err))
	}
}
