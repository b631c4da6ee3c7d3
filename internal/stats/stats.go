// Package stats collects simulation metrics (cycle counts, NVM traffic,
// energy) and renders them as text tables for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Counters is a named-counter registry. The zero value is usable.
//
// Counters are stored boxed so hot paths can resolve a name once with
// Handle and bump through the pointer, skipping the per-event map
// lookup (string hashing dominates when a counter is incremented tens
// of times per operation).
type Counters struct {
	m map[string]*int64
}

// Handle returns a stable pointer to counter name, creating it at zero
// if needed. The pointer stays valid until Reset; callers may increment
// it directly (`*h += n`) on hot paths.
func (c *Counters) Handle(name string) *int64 {
	if c.m == nil {
		c.m = make(map[string]*int64)
	}
	p := c.m[name]
	if p == nil {
		p = new(int64)
		c.m[name] = p
	}
	return p
}

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) { *c.Handle(name) += delta }

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of counter name (zero if never touched).
func (c *Counters) Get(name string) int64 {
	if p := c.m[name]; p != nil {
		return *p
	}
	return 0
}

// Set overwrites counter name.
func (c *Counters) Set(name string, v int64) { *c.Handle(name) = v }

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge adds every counter of other into c.
func (c *Counters) Merge(other *Counters) {
	for n, v := range other.m {
		c.Add(n, *v)
	}
}

// Reset clears all counters. Handles issued before the reset go stale
// (they keep counting into the discarded generation).
func (c *Counters) Reset() { c.m = nil }

// Snapshot returns a copy of the current counter map.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = *v
	}
	return out
}

// Ratio returns a/b as float64, or 0 if b is zero.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// GeoMean returns the geometric mean of xs; 0 for empty input or any
// non-positive element.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Compute in log space to avoid overflow; reject non-positive inputs.
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += ln(x)
	}
	return exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table is a simple fixed-column text table used to print paper-style
// results.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Cells beyond the column count are dropped; missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row where each cell is formatted with %v, floats with
// four significant decimals.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.4f", v))
		case string:
			row = append(row, v)
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// Histogram is a fixed-resolution log-bucketed histogram for latency
// distributions: values land in power-of-two buckets, so percentile
// queries are O(buckets) with bounded relative error (~2x per bucket,
// refined by linear interpolation within the bucket).
type Histogram struct {
	counts [64]uint64
	total  uint64
	min    uint64
	max    uint64
	sum    uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	b := bucketOf(v)
	h.counts[b]++
	h.total++
	h.sum += v
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// bucketOf is v's bucket: its bit length, the top bucket also holding
// the values of 64 bits.
func bucketOf(v uint64) int {
	return min(bits.Len64(v), 63)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min and Max return the observed extremes.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]).
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c > target {
			// Interpolate within [2^(b-1), 2^b).
			lo := uint64(0)
			if b > 0 {
				lo = 1 << uint(b-1)
			}
			hi := uint64(1)<<uint(b) - 1
			if hi < lo {
				hi = lo
			}
			frac := float64(target-seen) / float64(c)
			v := lo + uint64(frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		seen += c
	}
	return h.max
}

// Merge adds another histogram's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}
