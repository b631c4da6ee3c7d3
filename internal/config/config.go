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

// Scheme selects which persistent-ORAM protocol of §5.1 the system
// runs; what it does is its Policy, in the schemes table below.
type Scheme int

const (
	SchemeNonORAM     Scheme = iota // plain (encrypted) NVM accesses: the raw cost of ORAM
	SchemeBaseline                  // Path ORAM on NVM without crash consistency
	SchemeFullNVM                   // stash and PosMap built from PCM
	SchemeFullNVMSTT                // stash and PosMap built from STT-RAM
	SchemeNaivePSORAM               // every block and PosMap entry of the path, atomically
	SchemePSORAM                    // path blocks and dirty PosMap entries, atomically (the paper's)
	SchemeRcrBaseline               // recursive Path ORAM without data persistence
	SchemeRcrPSORAM                 // the recursive variant of PS-ORAM
	SchemeEADRORAM                  // the whole cache hierarchy in the persistence domain
)

// Medium is what a scheme builds its on-chip stash and PosMap from.
type Medium uint8

const (
	MediumSRAM   Medium = iota // volatile: a power failure clears it
	MediumPCM                  // non-volatile, but not updated atomically
	MediumSTTRAM               // non-volatile, like PCM
)

var mediumTiming = [...]NVMTiming{MediumPCM: PCM(), MediumSTTRAM: STTRAM()}

// Timing returns the device timing of a non-volatile medium; ok is
// false for SRAM.
func (m Medium) Timing() (t NVMTiming, ok bool) { return mediumTiming[m], m != MediumSRAM }

// Entries says which PosMap entries an eviction persists with its path.
type Entries uint8

const (
	EntriesNone  Entries = iota
	EntriesDirty         // those of evicted blocks with a pending remap
	EntriesPath          // one for every slot of the path
)

// Domain is a scheme's persistence domain.
type Domain uint8

const (
	DomainNone Domain = iota // buffers and on-chip state are lost at a power failure
	DomainWPQ                // ADR: evictions commit as atomic WPQ batches
	DomainEADR               // a power failure drains buffers and on-chip state to NVM
)

// Policy is a scheme as §5.1 of the paper defines it: the choices that
// tell the schemes apart. Every layer reads these fields, never a
// scheme's name. Nothing sets a Policy: each scheme has one.
type Policy struct {
	ORAM      bool    // runs Path ORAM (false: plain NVM accesses)
	Recursive bool    // the PosMap is a hierarchy of ORAM trees in NVM
	OnChip    Medium  // what the stash and PosMap are built from
	PosMap    Entries // PosMap entries persisted with each eviction
	Domain    Domain  // the persistence domain
}

// Persistent reports whether the scheme provides crash-consistent
// persistence of ORAM data and metadata.
func (p Policy) Persistent() bool { return p.Domain != DomainNone }

// WPQAtomic reports whether evictions persist through atomic WPQ
// batches, and so owe the must-return eviction rule (eADR drains).
func (p Policy) WPQAtomic() bool { return p.Domain == DomainWPQ }

// OffersStep reports whether a crash at protocol step (2..6, §4.2.1)
// is observable. Under eADR it is not at step 5: the domain covers the
// write buffers, so a power failure mid-write-back drains the rest of
// the eviction and is indistinguishable from a crash after step 5.
func (p Policy) OffersStep(step int) bool { return p.Domain != DomainEADR || step != 5 }

// Storable reports whether a durable file store and a snapshot cover
// the scheme: the flat Path ORAM family. Neither format carries a
// recursive hierarchy's PosMap trees.
func (p Policy) Storable() bool { return p.ORAM && !p.Recursive }

// schemes is the scheme matrix (DESIGN.md §3), indexed by Scheme in
// presentation order.
var schemes = [...]struct {
	name   string
	policy Policy
}{
	SchemeNonORAM:     {"NonORAM", Policy{}},
	SchemeBaseline:    {"Baseline", Policy{ORAM: true}},
	SchemeFullNVM:     {"FullNVM", Policy{ORAM: true, OnChip: MediumPCM}},
	SchemeFullNVMSTT:  {"FullNVM(STT)", Policy{ORAM: true, OnChip: MediumSTTRAM}},
	SchemeNaivePSORAM: {"Naive-PS-ORAM", Policy{ORAM: true, PosMap: EntriesPath, Domain: DomainWPQ}},
	SchemePSORAM:      {"PS-ORAM", Policy{ORAM: true, PosMap: EntriesDirty, Domain: DomainWPQ}},
	SchemeRcrBaseline: {"Rcr-Baseline", Policy{ORAM: true, Recursive: true}},
	SchemeRcrPSORAM:   {"Rcr-PS-ORAM", Policy{ORAM: true, Recursive: true, PosMap: EntriesDirty, Domain: DomainWPQ}},
	SchemeEADRORAM:    {"eADR-ORAM", Policy{ORAM: true, Domain: DomainEADR}},
}

func (s Scheme) String() string {
	if uint(s) < uint(len(schemes)) {
		return schemes[s].name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Policy returns the scheme's policy; an unknown scheme's runs no ORAM.
func (s Scheme) Policy() Policy {
	if uint(s) < uint(len(schemes)) {
		return schemes[s].policy
	}
	return Policy{}
}

// Schemes lists every evaluated scheme in presentation order.
func Schemes() []Scheme {
	out := make([]Scheme, len(schemes))
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
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
	case c.WriteBufferEntries < 0:
		return fmt.Errorf("config: WriteBufferEntries must not be negative, got %d", c.WriteBufferEntries)
	case c.PLBEntries < 1:
		return fmt.Errorf("config: PLBEntries must be positive, got %d", c.PLBEntries)
	case c.OnChipPosMapBytes < 1:
		return fmt.Errorf("config: OnChipPosMapBytes must be positive, got %d", c.OnChipPosMapBytes)
	case c.NVM.ClockMHz <= 0 || c.CoreFreqMHz < c.NVM.ClockMHz:
		return fmt.Errorf("config: core clock must be >= NVM clock")
	case c.PosMapEntryBytes <= 0 || c.PosMapEntryBytes > 8:
		return fmt.Errorf("config: PosMapEntryBytes must be in [1,8]")
	}
	return nil
}
