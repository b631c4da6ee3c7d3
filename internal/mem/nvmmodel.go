package mem

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/nvm"
)

// nvmModel is the timed model: the paper's evaluation platform. It owns
// everything that decides *when* — the mapping of tree and PosMap
// coordinates onto channels, banks and rows, the nvm.Device schedulers,
// the volatile write buffer's occupancy, and the two WPQs' occupancy —
// and nothing that decides *what survives*.
type nvmModel struct {
	cfg     config.Config
	devices []*nvm.Device
	ratio   Cycle // core cycles per NVM cycle

	// Volatile posted-write buffer occupancy.
	posted    postedHeap
	postedCap int

	// WPQ occupancy model: completion cycles of entries still draining.
	dataWPQ   postedHeap
	posMapWPQ postedHeap

	// treeAddr memoizes treeAddress per bucket (the address is a pure
	// function of the bucket; grown on demand, capped at treeAddrCacheMax).
	treeAddr []address
}

// address is a fully resolved NVM address.
type address struct {
	channel int
	bank    int
	row     int64
}

func newNVMModel(cfg config.Config) *nvmModel {
	m := &nvmModel{
		cfg:       cfg,
		ratio:     Cycle(cfg.CoreCyclesPerNVMCycle()),
		postedCap: cfg.WriteBufferEntries,
		posted:    make(postedHeap, 0, cfg.WriteBufferEntries),
		dataWPQ:   make(postedHeap, 0, cfg.DataWPQEntries),
		posMapWPQ: make(postedHeap, 0, cfg.PosMapWPQEntries),
	}
	for i := 0; i < cfg.Channels; i++ {
		m.devices = append(m.devices, nvm.NewDevice(cfg.NVM, cfg.BanksPerChannel, cfg.BlockBytes))
	}
	return m
}

// postedHeap is a typed min-heap of completion cycles. container/heap
// would box every Cycle into an interface value on Push/Pop — an
// allocation per queue operation on the hot path — so the sift
// primitives are implemented directly on the slice.
type postedHeap []Cycle

func (h postedHeap) Len() int { return len(h) }

func (h *postedHeap) push(x Cycle) {
	q := append(*h, x)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *postedHeap) pop() Cycle {
	q := *h
	n := len(q) - 1
	x := q[0]
	q[0] = q[n]
	*h = q[:n]
	q[:n].siftDown(0)
	return x
}

func (h postedHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// reap removes every entry with completion <= now: a linear partition
// of the survivors followed by an O(n) heapify, instead of popping the
// expired entries one at a time (O(k log n)). The surviving multiset —
// and therefore every later pop — is identical either way.
func (h *postedHeap) reap(now Cycle) {
	q := *h
	if len(q) == 0 || q[0] > now {
		return
	}
	kept := q[:0]
	for _, x := range q {
		if x > now {
			kept = append(kept, x)
		}
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
	*h = kept
}

// toNVM converts core cycles to NVM cycles (floor).
func (m *nvmModel) toNVM(t Cycle) nvm.Cycle { return nvm.Cycle(t / m.ratio) }

// toCore converts NVM cycles to core cycles (ceiling to be conservative).
func (m *nvmModel) toCore(t nvm.Cycle) Cycle { return Cycle(t) * m.ratio }

// subtreeLevel is the tree level below which buckets are allocated by
// subtree rather than round-robin: each level-8 subtree lives in one
// channel's address region (contiguous allocations improve row locality,
// which is how real ORAM memory allocators behave). The consequence —
// the deep tail of every path lands on a single channel — is exactly the
// "hard to allocate the memory accesses to each channel equally" effect
// that saturates the paper's multi-channel scaling (§5.2.3).
const subtreeLevel = 8

// treeAddrCacheMax bounds the memoized bucket→address table: every data
// tree in practice has far fewer buckets; anything beyond falls through
// to the arithmetic path.
const treeAddrCacheMax = 1 << 20

// resolve maps a Location to its device address. Tree regions are
// separated in the row address space (they are distinct NVM
// allocations): region r sits r<<44 rows above the data tree.
func (m *nvmModel) resolve(loc Location) address {
	if loc.region == posMapRegion {
		return m.posMapAddress(loc.index)
	}
	a := m.treeAddress(loc.index)
	a.row += int64(loc.region) << 44
	return a
}

// treeAddress maps a bucket of an ORAM tree to a device address. Shallow
// buckets interleave across channels round-robin; deep buckets map by
// their level-8 subtree. The Z slots of one bucket share a row, so
// reading a bucket enjoys row-buffer hits.
//
// The address depends only on the bucket, and the hot paths resolve it
// Z times per bucket per access, so results memoize in a dense table
// (the controller is single-threaded, like the rest of the model).
func (m *nvmModel) treeAddress(bucket uint64) address {
	if bucket < uint64(len(m.treeAddr)) {
		return m.treeAddr[bucket]
	}
	a := m.treeAddressSlow(bucket)
	if bucket < treeAddrCacheMax {
		for i := uint64(len(m.treeAddr)); i <= bucket; i++ {
			m.treeAddr = append(m.treeAddr, m.treeAddressSlow(i))
		}
	}
	return a
}

func (m *nvmModel) treeAddressSlow(bucket uint64) address {
	channels := uint64(len(m.devices))
	var ch uint64
	if lvl := bits.Len64(bucket+1) - 1; lvl < subtreeLevel {
		ch = bucket % channels
	} else {
		ancestor := (bucket+1)>>(uint(lvl-subtreeLevel)) - 1
		ch = ancestor % channels
	}
	perCh := bucket / channels
	bank := int(perCh % uint64(m.cfg.BanksPerChannel))
	row := int64(perCh / uint64(m.cfg.BanksPerChannel))
	return address{channel: int(ch), bank: bank, row: row}
}

// posMapAddress maps a PosMap entry index to its home in the trusted
// PosMap region of NVM. The region lives past the tree rows (row offset
// 1<<40) and packs entries so that one block row holds BlockBytes /
// PosMapEntryBytes entries.
func (m *nvmModel) posMapAddress(entry uint64) address {
	perRow := uint64(m.cfg.BlockBytes / m.cfg.PosMapEntryBytes)
	rowIdx := entry / perRow
	ch := int(rowIdx % uint64(len(m.devices)))
	perCh := rowIdx / uint64(len(m.devices))
	bank := int(perCh % uint64(m.cfg.BanksPerChannel))
	row := int64(perCh/uint64(m.cfg.BanksPerChannel)) + (1 << 40)
	return address{channel: ch, bank: bank, row: row}
}

func (m *nvmModel) schedule(op nvm.Op, a address, bytes int, t Cycle) Cycle {
	comp := m.devices[a.channel].ScheduleBytes(op, a.bank, a.row, m.toNVM(t), bytes)
	return m.toCore(comp.Done)
}

func (m *nvmModel) read(loc Location, n, bytes int, t Cycle) Cycle {
	a := m.resolve(loc)
	var done Cycle
	for i := 0; i < n; i++ {
		if d := m.schedule(nvm.Read, a, bytes, t); d > done {
			done = d
		}
	}
	return done
}

func (m *nvmModel) write(loc Location, bytes int, t Cycle) Cycle {
	return m.schedule(nvm.Write, m.resolve(loc), bytes, t)
}

func (m *nvmModel) post(loc Location, t Cycle) (proceed, done Cycle) {
	proceed = t
	// Stall if the volatile buffer is full of writes that are still
	// draining at t.
	m.posted.reap(t)
	for m.posted.Len() >= m.postedCap {
		oldest := m.posted.pop()
		if oldest > proceed {
			proceed = oldest
		}
	}
	done = m.schedule(nvm.Write, m.resolve(loc), m.cfg.BlockBytes, proceed)
	m.posted.push(done)
	return proceed, done
}

func (m *nvmModel) enqueue(entries []batchEntry, t Cycle) Cycle {
	proceed := t
	for i := range entries {
		e := &entries[i]
		q, capacity := &m.dataWPQ, m.cfg.DataWPQEntries
		if e.kind == PosMapEntry {
			q, capacity = &m.posMapWPQ, m.cfg.PosMapWPQEntries
		}
		// Reap entries already drained, then free a slot if the queue
		// is still full: wait for the oldest drain.
		q.reap(proceed)
		for q.Len() >= capacity {
			oldest := q.pop()
			if oldest > proceed {
				proceed = oldest
			}
		}
		// Schedule the background drain to NVM.
		q.push(m.schedule(nvm.Write, m.resolve(e.loc), int(e.bytes), proceed))
	}
	return proceed
}

func (m *nvmModel) powerFail() {
	m.posted = m.posted[:0]
	m.dataWPQ = m.dataWPQ[:0]
	m.posMapWPQ = m.posMapWPQ[:0]
}

func (m *nvmModel) deviceStats() nvm.Stats {
	var agg nvm.Stats
	for i, d := range m.devices {
		s := d.Stats()
		agg.Reads += s.Reads
		agg.Writes += s.Writes
		agg.BytesRead += s.BytesRead
		agg.BytesWritten += s.BytesWritten
		agg.EnergyReadPJ += s.EnergyReadPJ
		agg.EnergyWritePJ += s.EnergyWritePJ
		agg.RowBufferHits += s.RowBufferHits
		agg.RowBufferMisses += s.RowBufferMisses
		if s.LastCompletion > agg.LastCompletion {
			agg.LastCompletion = s.LastCompletion
		}
		if i == 0 {
			agg.MinBankWrites = s.MinBankWrites
		}
		if s.MaxBankWrites > agg.MaxBankWrites {
			agg.MaxBankWrites = s.MaxBankWrites
		}
		if s.MinBankWrites < agg.MinBankWrites {
			agg.MinBankWrites = s.MinBankWrites
		}
	}
	return agg
}
