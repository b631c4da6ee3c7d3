package oram

import (
	"runtime"
	"sync/atomic"
)

// region is an image's memory outside the Go heap: one mapping holding
// the record table, the cell-handle table and the payload cells (see
// newImage). It never holds a Go pointer, so the garbage collector has
// nothing to scan in it and does not count it toward its goal. The
// image frees it on Close; a region nobody closed is freed when the
// collector finds it unreachable.
type region struct{ mem []byte }

// liveRegions counts the regions mapped and not yet freed.
var liveRegions atomic.Int64

// newRegion maps an n-byte region, or returns the error that refused it.
func newRegion(n uint64) (*region, error) {
	mem, err := mapRegion(int(n))
	if err != nil {
		return nil, err
	}
	r := &region{mem: mem}
	liveRegions.Add(1)
	runtime.SetFinalizer(r, (*region).free)
	return r, nil
}

// free unmaps the region. Freeing it twice is a no-op.
func (r *region) free() {
	if r.mem == nil {
		return
	}
	runtime.SetFinalizer(r, nil)
	unmapRegion(r.mem)
	r.mem = nil
	liveRegions.Add(-1)
}

// LiveRegions returns the number of image regions in the process that
// are mapped and not yet freed: every image holds one from construction
// until its Close, or until the collector frees an image nobody closed.
func LiveRegions() int64 { return liveRegions.Load() }
