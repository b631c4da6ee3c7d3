package oracle

import (
	"math"

	"repro/internal/oram"
)

// The obliviousness probe: a Path ORAM access sequence must read
// uniformly distributed paths regardless of the address pattern — every
// access reads the target's current leaf, and leaves are reassigned
// uniformly at random. A protocol bug that biases remaps (or leaks the
// address pattern into the leaf sequence) skews this distribution, which
// a chi-square test against uniformity catches (cf. Palermo's
// observation that protocol changes silently skew access-trace
// distributions).

// ChiSquareUniform computes Pearson's chi-square statistic for observed
// bin counts against a uniform expectation over len(counts) bins, plus
// the upper-tail p-value for k-1 degrees of freedom.
func ChiSquareUniform(counts []uint64, total uint64) (chi2, p float64) {
	k := len(counts)
	if k < 2 || total == 0 {
		return 0, 1
	}
	e := float64(total) / float64(k)
	for _, c := range counts {
		d := float64(c) - e
		chi2 += d * d / e
	}
	return chi2, chiSquareSurvival(chi2, float64(k-1))
}

// chiSquareSurvival approximates P(X >= x) for X ~ chi-square(df) via the
// Wilson–Hilferty cube-root normal transform. Accurate to a few percent
// for df >= 3 — ample for a gross-skew tripwire at extreme alpha.
func chiSquareSurvival(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	z := (math.Cbrt(x/df) - (1 - 2/(9*df))) / math.Sqrt(2/(9*df))
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// LeafUniformity bins a leaf sequence into contiguous ranges and tests
// the counts against uniformity. It picks up to 16 bins, halving until
// the expected count per bin reaches 5 (the usual validity floor of the
// chi-square approximation); sequences too short for 2 such bins are
// skipped (ok=false). nLeaves is the tree's leaf count.
func LeafUniformity(leaves []oram.Leaf, nLeaves uint64) (chi2, p float64, bins int, ok bool) {
	if nLeaves < 2 || len(leaves) == 0 {
		return 0, 1, 0, false
	}
	bins = 16
	if uint64(bins) > nLeaves {
		bins = int(nLeaves)
	}
	for bins > 1 && float64(len(leaves))/float64(bins) < 5 {
		bins /= 2
	}
	if bins < 2 {
		return 0, 1, 0, false
	}
	counts := make([]uint64, bins)
	for _, l := range leaves {
		counts[uint64(l)*uint64(bins)/nLeaves]++
	}
	chi2, p = ChiSquareUniform(counts, uint64(len(leaves)))
	return chi2, p, bins, true
}
