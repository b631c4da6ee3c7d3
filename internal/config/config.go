// Package config defines the experimental configuration of the PS-ORAM
// system: the on-chip processor and cache parameters, the ORAM controller
// geometry, and the persistence-domain/NVM parameters. The defaults
// reproduce Table 3 of the paper.
package config

import (
	"fmt"
	"strings"
)

// Scheme selects which persistent-ORAM protocol the system runs.
type Scheme int

const (
	// SchemeNonORAM bypasses ORAM entirely: plain (encrypted) NVM accesses.
	// Used only to measure the raw cost of ORAM itself (§5.1).
	SchemeNonORAM Scheme = iota
	// SchemeBaseline is Path ORAM on NVM without crash consistency.
	SchemeBaseline
	// SchemeFullNVM builds the on-chip stash and PosMap from PCM.
	SchemeFullNVM
	// SchemeFullNVMSTT builds the on-chip stash and PosMap from STT-RAM.
	SchemeFullNVMSTT
	// SchemeNaivePSORAM persists every accessed block and every PosMap
	// entry on the path, atomically, each access.
	SchemeNaivePSORAM
	// SchemePSORAM persists path blocks and only dirty PosMap entries,
	// atomically, each access (the paper's contribution).
	SchemePSORAM
	// SchemeRcrBaseline is recursive Path ORAM without data persistence.
	SchemeRcrBaseline
	// SchemeRcrPSORAM is the recursive variant of PS-ORAM.
	SchemeRcrPSORAM
	// SchemeEADRORAM extends the persistence domain over the whole cache
	// hierarchy. Only its draining energy/time are modeled (Table 2);
	// its steady-state performance matches Baseline.
	SchemeEADRORAM
)

var schemeNames = map[Scheme]string{
	SchemeNonORAM:     "NonORAM",
	SchemeBaseline:    "Baseline",
	SchemeFullNVM:     "FullNVM",
	SchemeFullNVMSTT:  "FullNVM(STT)",
	SchemeNaivePSORAM: "Naive-PS-ORAM",
	SchemePSORAM:      "PS-ORAM",
	SchemeRcrBaseline: "Rcr-Baseline",
	SchemeRcrPSORAM:   "Rcr-PS-ORAM",
	SchemeEADRORAM:    "eADR-ORAM",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Recursive reports whether the scheme stores the PosMap as a hierarchy of
// smaller ORAM trees in untrusted NVM.
func (s Scheme) Recursive() bool {
	return s == SchemeRcrBaseline || s == SchemeRcrPSORAM
}

// Persistent reports whether the scheme provides crash-consistent
// persistence of ORAM data and metadata.
func (s Scheme) Persistent() bool {
	switch s {
	case SchemeNaivePSORAM, SchemePSORAM, SchemeRcrPSORAM, SchemeEADRORAM:
		return true
	}
	return false
}

// Schemes lists every evaluated scheme in presentation order.
func Schemes() []Scheme {
	return []Scheme{
		SchemeNonORAM, SchemeBaseline, SchemeFullNVM, SchemeFullNVMSTT,
		SchemeNaivePSORAM, SchemePSORAM, SchemeRcrBaseline, SchemeRcrPSORAM,
		SchemeEADRORAM,
	}
}

// ParseScheme resolves a scheme by the name its String method prints.
func ParseScheme(name string) (Scheme, error) {
	var known []string
	for _, s := range Schemes() {
		if s.String() == name {
			return s, nil
		}
		known = append(known, s.String())
	}
	return 0, fmt.Errorf("unknown scheme %q (have %s)", name, strings.Join(known, ", "))
}

// ParseSchemes resolves a comma-separated list of scheme names; "all"
// is every scheme in presentation order.
func ParseSchemes(list string) ([]Scheme, error) {
	if list == "all" {
		return Schemes(), nil
	}
	var out []Scheme
	for _, name := range strings.Split(list, ",") {
		s, err := ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// NVMTiming holds device timing parameters in NVM clock cycles (Table 3c).
type NVMTiming struct {
	Name string
	// ClockMHz is the device command clock.
	ClockMHz int
	TRCD     int // row (activate) to column delay
	TWP      int // write pulse
	TCWD     int // column write delay
	TWTR     int // write-to-read turnaround
	TRP      int // row precharge
	TCCD     int // column-to-column (burst gap)
}

// PCM returns the phase-change memory timing preset from Table 3.
func PCM() NVMTiming {
	return NVMTiming{Name: "PCM", ClockMHz: 400, TRCD: 48, TWP: 60, TCWD: 4, TWTR: 3, TRP: 1, TCCD: 2}
}

// STTRAM returns the STT-RAM timing preset from Table 3.
func STTRAM() NVMTiming {
	return NVMTiming{Name: "STTRAM", ClockMHz: 400, TRCD: 14, TWP: 14, TCWD: 10, TWTR: 5, TRP: 1, TCCD: 2}
}

// ReadLatency returns the device cycles to service a block read once the
// command issues on an idle bank (activate + column access).
func (t NVMTiming) ReadLatency() int { return t.TRCD + t.TCCD }

// WriteLatency returns the device cycles to complete a block write on an
// idle bank (activate + column write delay + write pulse).
func (t NVMTiming) WriteLatency() int { return t.TRCD + t.TCWD + t.TWP }

// Config is the full experimental configuration (Table 3).
type Config struct {
	// ---- On-chip processor and cache (Table 3a) ----
	CoreFreqMHz int // 3200 (3.2 GHz)
	L1SizeBytes int
	L1Ways      int
	L1ReadCycle int
	L2SizeBytes int
	L2Ways      int
	L2ReadCycle int
	LineBytes   int

	// ---- ORAM controller (Table 3b) ----
	BlockBytes     int     // data block size (64B, cache-line)
	CapacityBytes  uint64  // data ORAM capacity (4GB => L=23)
	Z              int     // block slots per bucket
	StashEntries   int     // stash size C
	TempPosMapSize int     // temporary PosMap size C_TPos
	Utilization    float64 // fraction of tree slots holding real blocks (0.5)

	// ---- Persistence domain (Table 3c) ----
	NVM              NVMTiming
	Channels         int
	BanksPerChannel  int
	DataWPQEntries   int
	PosMapWPQEntries int
	// WriteBufferEntries is the volatile write coalescing buffer available
	// to non-persistent schemes; persistent schemes bypass it with ordered
	// synchronous flushes.
	WriteBufferEntries int

	// ---- Recursion (§4.4) ----
	// PosMapEntryBytes is the bytes per PosMap entry (leaf label).
	PosMapEntryBytes int
	// OnChipPosMapBytes is the largest final PosMap level kept on chip.
	OnChipPosMapBytes int
	// PLBEntries is the PosMap Lookaside Buffer capacity in posmap blocks
	// (Freecursive-style) used by recursive schemes.
	PLBEntries int

	// Integrity enables Merkle-tree verification of the ORAM tree with
	// crash-consistent root updates (extension; supported by the
	// WPQ-persistent schemes, whose atomic batches carry the hash and
	// root updates together with the data).
	Integrity bool

	// TreeTopCacheLevels enables the hybrid-memory extension sketched in
	// §4.5 of the paper: the top K levels of the ORAM tree are mirrored
	// in DRAM as a write-through cache. Path reads of those levels hit
	// DRAM; writes still reach NVM synchronously, so crash consistency
	// is untouched (the DRAM copy is volatile and never authoritative).
	// Zero disables the cache.
	TreeTopCacheLevels int
	// DRAMReadCycles is the core-cycle cost of a tree-top DRAM hit.
	DRAMReadCycles int

	// Seed drives all randomized behaviour (leaf remapping, traces).
	Seed uint64
}

// Default returns the Table 3 configuration.
func Default() Config {
	return Config{
		CoreFreqMHz: 3200,
		L1SizeBytes: 32 * 1024,
		L1Ways:      2,
		L1ReadCycle: 2,
		L2SizeBytes: 1024 * 1024,
		L2Ways:      8,
		L2ReadCycle: 20,
		LineBytes:   64,

		BlockBytes:     64,
		CapacityBytes:  4 << 30,
		Z:              4,
		StashEntries:   200,
		TempPosMapSize: 96,
		Utilization:    0.5,

		NVM:                PCM(),
		Channels:           1,
		BanksPerChannel:    8,
		DataWPQEntries:     96,
		PosMapWPQEntries:   96,
		WriteBufferEntries: 64,

		PosMapEntryBytes:  4,
		OnChipPosMapBytes: 256 * 1024,
		PLBEntries:        1024,
		DRAMReadCycles:    60,

		Seed: 1,
	}
}

// TreeLevels returns L, the height of the ORAM tree (root is level 0,
// leaves are level L), for a tree whose slot capacity covers
// CapacityBytes of NVM at the configured block size.
//
// A tree of height L has 2^(L+1)-1 buckets and Z*(2^(L+1)-1) slots.
// Following the paper, "4GB (L = 23)" with 64B blocks and Z=4:
// 2^24-1 buckets * 4 slots * 64B ~= 4GB.
func (c Config) TreeLevels() int {
	buckets := c.CapacityBytes / uint64(c.BlockBytes) / uint64(c.Z)
	// Largest L whose tree (2^(L+1)-1 buckets) fits in the capacity; the
	// paper's "4GB (L = 23)" uses the same convention (2^24-1 buckets).
	l := 0
	for n := uint64(3); n <= buckets; n = n*2 + 1 {
		l++
	}
	return l
}

// TreeLevelsFor returns the height of an ORAM tree that must hold n real
// blocks at the configured utilization.
func (c Config) TreeLevelsFor(nBlocks uint64) int {
	if nBlocks == 0 {
		return 0
	}
	slots := uint64(float64(nBlocks)/c.Utilization) + 1
	buckets := (slots + uint64(c.Z) - 1) / uint64(c.Z)
	l := 0
	for n := uint64(1); n < buckets; n = n*2 + 1 {
		l++
	}
	return l
}

// PathBlocks returns Z*(L+1), the number of block slots on one path.
func (c Config) PathBlocks() int { return c.Z * (c.TreeLevels() + 1) }

// RealBlocks returns the number of real (logical) data blocks the tree
// holds at the configured utilization.
func (c Config) RealBlocks() uint64 {
	l := c.TreeLevels()
	buckets := uint64(1)<<(uint(l)+1) - 1
	return uint64(float64(buckets*uint64(c.Z)) * c.Utilization)
}

// CoreCyclesPerNVMCycle returns the core/NVM clock ratio.
func (c Config) CoreCyclesPerNVMCycle() int {
	return c.CoreFreqMHz / c.NVM.ClockMHz
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("config: BlockBytes %d must be a positive power of two", c.BlockBytes)
	case c.Z <= 0:
		return fmt.Errorf("config: Z must be positive, got %d", c.Z)
	case c.CapacityBytes < uint64(c.BlockBytes)*uint64(c.Z):
		return fmt.Errorf("config: capacity %d smaller than one bucket", c.CapacityBytes)
	case c.StashEntries <= c.PathBlocks():
		return fmt.Errorf("config: stash (%d) must exceed one path (%d blocks)", c.StashEntries, c.PathBlocks())
	case c.TempPosMapSize <= 0:
		return fmt.Errorf("config: TempPosMapSize must be positive")
	case c.Channels != 1 && c.Channels != 2 && c.Channels != 4 && c.Channels != 8:
		return fmt.Errorf("config: Channels must be 1, 2, 4 or 8, got %d", c.Channels)
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("config: BanksPerChannel must be positive")
	case c.Utilization <= 0 || c.Utilization > 1:
		return fmt.Errorf("config: Utilization must be in (0,1], got %f", c.Utilization)
	case c.DataWPQEntries <= 0 || c.PosMapWPQEntries <= 0:
		return fmt.Errorf("config: WPQ sizes must be positive")
	case c.NVM.ClockMHz <= 0 || c.CoreFreqMHz < c.NVM.ClockMHz:
		return fmt.Errorf("config: core clock must be >= NVM clock")
	case c.PosMapEntryBytes <= 0 || c.PosMapEntryBytes > 8:
		return fmt.Errorf("config: PosMapEntryBytes must be in [1,8]")
	case c.TreeTopCacheLevels < 0:
		return fmt.Errorf("config: TreeTopCacheLevels must be non-negative")
	case c.TreeTopCacheLevels > 0 && c.DRAMReadCycles <= 0:
		return fmt.Errorf("config: tree-top cache needs positive DRAMReadCycles")
	}
	return nil
}

// WithScale returns a copy of c shrunk to a small tree holding at least
// nBlocks real blocks. Used by tests and examples to keep runs fast while
// preserving protocol behaviour.
func (c Config) WithScale(nBlocks uint64) Config {
	out := c
	l := c.TreeLevelsFor(nBlocks)
	if l < 2 {
		l = 2
	}
	buckets := uint64(1)<<(uint(l)+1) - 1
	out.CapacityBytes = buckets * uint64(c.Z) * uint64(c.BlockBytes)
	if out.StashEntries <= out.PathBlocks() {
		out.StashEntries = out.PathBlocks() * 3
	}
	return out
}
