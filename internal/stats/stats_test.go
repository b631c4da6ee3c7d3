package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	if got := c.Get("x"); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
	c.Inc("x")
	c.Add("x", 4)
	c.Set("y", -2)
	if c.Get("x") != 5 || c.Get("y") != -2 {
		t.Fatalf("counters wrong: x=%d y=%d", c.Get("x"), c.Get("y"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	a.Add("reads", 10)
	b.Add("reads", 5)
	b.Add("writes", 3)
	a.Merge(&b)
	if a.Get("reads") != 15 || a.Get("writes") != 3 {
		t.Fatalf("merge wrong: %v", a.Snapshot())
	}
	// Merge must not alias the source.
	b.Add("writes", 100)
	if a.Get("writes") != 3 {
		t.Fatal("merge aliased source map")
	}
}

func TestCountersReset(t *testing.T) {
	var c Counters
	c.Add("a", 1)
	c.Reset()
	if c.Get("a") != 0 || len(c.Names()) != 0 {
		t.Fatal("reset did not clear")
	}
	c.Add("a", 2) // must be usable after reset
	if c.Get("a") != 2 {
		t.Fatal("counter unusable after reset")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	var c Counters
	c.Add("a", 1)
	s := c.Snapshot()
	s["a"] = 99
	if c.Get("a") != 1 {
		t.Fatal("snapshot aliases internal map")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Fatalf("Ratio(10,4) = %f", Ratio(10, 4))
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Fatal("GeoMean with non-positive element should be 0")
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: min <= geomean <= max for positive inputs.
	f := func(a, b, c uint32) bool {
		xs := []float64{float64(a%1000) + 1, float64(b%1000) + 1, float64(c%1000) + 1}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %f", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Results", "Scheme", "Slowdown")
	tab.AddRow("Baseline", "1.00")
	tab.AddRowf("PS-ORAM", 1.0429)
	s := tab.String()
	for _, want := range []string{"Results", "Scheme", "Baseline", "PS-ORAM", "1.0429"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	// Column alignment: all lines should begin with aligned headers;
	// ensure the separator line exists.
	if !strings.Contains(s, "---") {
		t.Errorf("missing separator:\n%s", s)
	}
}

func TestTableRowShapeMismatch(t *testing.T) {
	tab := NewTable("", "A", "B")
	tab.AddRow("only-one")
	tab.AddRow("x", "y", "dropped")
	s := tab.String()
	if strings.Contains(s, "dropped") {
		t.Errorf("extra cell should be dropped:\n%s", s)
	}
	if !strings.Contains(s, "only-one") {
		t.Errorf("short row lost:\n%s", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should be zero-valued")
	}
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("count/min/max: %d %d %d", h.Count(), h.Min(), h.Max())
	}
	if m := h.Mean(); m != 22 {
		t.Fatalf("mean = %f", m)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %d, want within log-bucket error of 500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 (%d) below p50 (%d)", p99, p50)
	}
	if h.Quantile(0) < 1 || h.Quantile(1) != 1000 {
		t.Fatalf("extreme quantiles: %d %d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Observe(uint64(v) + 1)
		}
		prev := uint64(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	b.Observe(1000)
	b.Observe(2000)
	a.Merge(&b)
	if a.Count() != 3 || a.Min() != 10 || a.Max() != 2000 {
		t.Fatalf("merge: count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 3 {
		t.Fatal("merging empty changed the histogram")
	}
}

func TestHistogramClampsToObservedRange(t *testing.T) {
	var h Histogram
	h.Observe(1000)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := h.Quantile(q); v != 1000 {
			t.Fatalf("single-value histogram quantile(%f) = %d", q, v)
		}
	}
}

// TestBucketOfMatchesShiftLoop: bucketOf is the bit length of v, capped
// at the top bucket — what shifting v right one bit at a time and
// counting the shifts gives, at every power-of-two boundary.
func TestBucketOfMatchesShiftLoop(t *testing.T) {
	shiftLoop := func(v uint64) int {
		b := 0
		for v > 0 {
			v >>= 1
			b++
		}
		if b >= 64 {
			b = 63
		}
		return b
	}
	vals := []uint64{0, 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		p := uint64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	for _, v := range vals {
		if got, want := bucketOf(v), shiftLoop(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, the shift loop gives %d", v, got, want)
		}
	}
}
