// Package config defines the experimental configuration of the PS-ORAM
// system: the core clock, the ORAM controller geometry, and the
// persistence-domain/NVM parameters. The defaults reproduce Table 3 of
// the paper; the tree height is not a Config field but is chosen per run
// (sim.Request.Levels, core.Options.Levels or TreeLevelsFor).
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
	// ---- On-chip processor (Table 3a) ----
	CoreFreqMHz int // 3200 (3.2 GHz)

	// ---- ORAM controller (Table 3b) ----
	BlockBytes     int     // data block size (64B, cache-line)
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

	// Seed drives all randomized behaviour (leaf remapping, traces).
	Seed uint64
}

// Default returns the Table 3 configuration.
func Default() Config {
	return Config{
		CoreFreqMHz: 3200,

		BlockBytes:     64,
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

		Seed: 1,
	}
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
	}
	return nil
}
