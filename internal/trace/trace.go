// Package trace generates and stores the memory workloads driving the
// evaluation. The paper uses simpoint samples of 14 SPEC CPU2006
// workloads (Table 4 lists their LLC MPKIs); we cannot redistribute SPEC,
// so this package synthesizes, per workload, an instruction-annotated
// LLC-miss address stream with the published MPKI and a locality profile
// chosen per workload class. Figures normalize each workload to its own
// baseline, so the miss rate and locality are the properties that matter
// — both are explicit parameters here.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/rng"
)

// Record is one LLC miss: the instruction gap since the previous miss,
// the block address (cache-line granularity), and whether the miss is a
// store (dirty-eviction write-back pressure).
type Record struct {
	InstrGap uint64
	Addr     uint64
	Write    bool
}

// Workload describes a synthetic SPEC-like workload.
type Workload struct {
	Name string
	// MPKI is LLC misses per kilo-instruction (Table 4).
	MPKI float64
	// Footprint is the number of distinct blocks the workload touches.
	Footprint uint64
	// Locality in [0,1]: probability a miss hits the hot set (higher
	// means more reuse, better PLB behaviour for recursive schemes).
	Locality float64
	// HotFraction is the fraction of the footprint forming the hot set.
	HotFraction float64
	// WriteRatio is the store fraction of misses.
	WriteRatio float64
}

// Table4 returns the 14 SPEC CPU2006 workloads with the paper's MPKIs.
// Locality profiles follow each benchmark's published characterization:
// pointer-chasing benchmarks (mcf, omnetpp, xalancbmk) have poor
// locality; streaming kernels (libquantum, lbm) sweep large footprints;
// compression and AI (bzip2, sjeng, gobmk) sit in between.
func Table4() []Workload {
	return []Workload{
		{Name: "401.bzip2", MPKI: 61.16, Footprint: 1 << 22, Locality: 0.55, HotFraction: 0.10, WriteRatio: 0.38},
		{Name: "403.gcc", MPKI: 1.19, Footprint: 1 << 20, Locality: 0.75, HotFraction: 0.05, WriteRatio: 0.30},
		{Name: "429.mcf", MPKI: 4.66, Footprint: 1 << 23, Locality: 0.25, HotFraction: 0.02, WriteRatio: 0.25},
		{Name: "445.gobmk", MPKI: 29.60, Footprint: 1 << 21, Locality: 0.60, HotFraction: 0.08, WriteRatio: 0.33},
		{Name: "456.hmmer", MPKI: 4.53, Footprint: 1 << 19, Locality: 0.80, HotFraction: 0.10, WriteRatio: 0.45},
		{Name: "458.sjeng", MPKI: 110.99, Footprint: 1 << 22, Locality: 0.50, HotFraction: 0.06, WriteRatio: 0.30},
		{Name: "462.libquantum", MPKI: 18.27, Footprint: 1 << 23, Locality: 0.15, HotFraction: 0.01, WriteRatio: 0.25},
		{Name: "464.h264ref", MPKI: 19.74, Footprint: 1 << 20, Locality: 0.70, HotFraction: 0.12, WriteRatio: 0.35},
		{Name: "471.omnetpp", MPKI: 7.84, Footprint: 1 << 22, Locality: 0.30, HotFraction: 0.03, WriteRatio: 0.35},
		{Name: "483.xalancbmk", MPKI: 8.99, Footprint: 1 << 22, Locality: 0.35, HotFraction: 0.04, WriteRatio: 0.30},
		{Name: "444.namd", MPKI: 8.08, Footprint: 1 << 20, Locality: 0.65, HotFraction: 0.10, WriteRatio: 0.30},
		{Name: "453.povray", MPKI: 6.12, Footprint: 1 << 19, Locality: 0.70, HotFraction: 0.10, WriteRatio: 0.28},
		{Name: "470.lbm", MPKI: 18.38, Footprint: 1 << 23, Locality: 0.10, HotFraction: 0.01, WriteRatio: 0.48},
		{Name: "482.sphinx3", MPKI: 17.51, Footprint: 1 << 21, Locality: 0.55, HotFraction: 0.07, WriteRatio: 0.22},
	}
}

// ByName returns the Table 4 workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range Table4() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}

// Generator produces a deterministic miss stream for a workload.
type Generator struct {
	w        Workload
	r        *rng.Rand
	hotSize  uint64
	coldSize uint64
	// gapBase is the mean instruction gap between misses.
	gapBase float64
}

// NewGenerator creates a generator; footprint is clamped to maxBlocks
// when maxBlocks is non-zero (simulated trees smaller than the SPEC
// footprint reuse the address space modulo the tree size).
func NewGenerator(w Workload, seed uint64, maxBlocks uint64) *Generator {
	if maxBlocks != 0 && w.Footprint > maxBlocks {
		w.Footprint = maxBlocks
	}
	hot := uint64(float64(w.Footprint) * w.HotFraction)
	if hot == 0 {
		hot = 1
	}
	return &Generator{
		w:       w,
		r:       rng.New(seed ^ hash(w.Name)),
		hotSize: hot, coldSize: w.Footprint - hot,
		gapBase: 1000.0 / w.MPKI,
	}
}

func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next produces the next miss record.
func (g *Generator) Next() Record {
	// Geometric instruction gap with the configured mean.
	gap := uint64(1)
	if g.gapBase > 1 {
		// Draw from a geometric-ish distribution: exponential rounding.
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		gap = uint64(-g.gapBase * ln(u))
		if gap == 0 {
			gap = 1
		}
	}
	var addr uint64
	if g.coldSize == 0 || g.r.Bool(g.w.Locality) {
		addr = g.r.Uint64n(g.hotSize)
	} else {
		addr = g.hotSize + g.r.Uint64n(g.coldSize)
	}
	return Record{
		InstrGap: gap,
		Addr:     addr,
		Write:    g.r.Bool(g.w.WriteRatio),
	}
}

// Generate returns n records.
func (g *Generator) Generate(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// MeasuredMPKI computes the MPKI implied by a record slice.
func MeasuredMPKI(recs []Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	var instr uint64
	for _, r := range recs {
		instr += r.InstrGap
	}
	if instr == 0 {
		return 0
	}
	return float64(len(recs)) * 1000 / float64(instr)
}

// ---------------------------------------------------------------------
// Binary trace file format: "PSOT" magic, version, count, then fixed
// 17-byte records (little endian).
// ---------------------------------------------------------------------

const (
	fileMagic   = "PSOT"
	fileVersion = 1
)

// Save writes records to path.
func Save(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := writeAll(w, recs); err != nil {
		return err
	}
	return w.Flush()
}

func writeAll(w io.Writer, recs []Record) error {
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fileVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(recs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [17]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(rec[0:8], r.InstrGap)
		binary.LittleEndian.PutUint64(rec[8:16], r.Addr)
		rec[16] = 0
		if r.Write {
			rec[16] = 1
		}
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// Load reads records from path.
func Load(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(bufio.NewReader(f))
}

func readAll(r io.Reader) ([]Record, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic[:]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	if n > 1<<32 {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	// The count is untrusted input: never pre-allocate from it directly
	// (a crafted header could demand gigabytes before the first short
	// read fails). Start small and grow; truncated files fail fast on
	// the first missing record.
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]Record, 0, capHint)
	var rec [17]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		out = append(out, Record{
			InstrGap: binary.LittleEndian.Uint64(rec[0:8]),
			Addr:     binary.LittleEndian.Uint64(rec[8:16]),
			Write:    rec[16] == 1,
		})
	}
	return out, nil
}

func ln(x float64) float64 { return math.Log(x) }
