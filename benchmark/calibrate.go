package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles are the cut points statistics.quantiles(values, n=4) gives in
// Python (the exclusive method), so the spreads printed here are the ones
// the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d)
	if m < 2 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// boundsFor turns the widest spread seen for each end-to-end metric into
// its bound: three times the spread, rounded up to a whole percent and
// never below the metric's floor, with setup_s given the largest bound of
// all. BENCHMARK.json may carry at most maxBound. A metric that wants more
// gets maxBound and a line in tight saying how many times its spread that
// is: below three, single runs do not resolve a change of the bound's
// size, and only the paired, alternating runs the driver makes do. A
// metric whose spread alone is above maxBound is an error: no bound the
// file can hold covers its own run-to-run spread, so it needs a longer
// phase or a place among the per-layer metrics.
func boundsFor(worst map[string]float64) (bounds map[string]float64, tight []string, err error) {
	bounds = make(map[string]float64)
	var widest float64
	for _, d := range endToEnd {
		s := worst[d.Name]
		b := math.Max(d.Bound, math.Ceil(3*s*100-1e-9)/100)
		if s > maxBound && d.Name != "setup_s" {
			return nil, nil, fmt.Errorf("%s spreads by %.1f%% between runs, more than the %.0f%% BENCHMARK.json can carry: lengthen its phase or demote it", d.Name, 100*s, 100*maxBound)
		}
		if b > maxBound {
			tight = append(tight, fmt.Sprintf("%s: widest spread %.1f%% wants a bound of %.0f%%; it gets %.0f%%, %.1f times the spread", d.Name, 100*s, 100*b, 100*maxBound, maxBound/s))
			b = maxBound
		}
		bounds[d.Name] = b
		widest = math.Max(widest, b)
	}
	bounds["setup_s"] = widest
	return bounds, tight, nil
}

// runCalibration runs n untraced runs of every gated workload, each a
// fresh process with its own seed, prints each metric's median, quartiles
// and spread, and writes BENCHMARK.json with the bounds boundsFor gives,
// printing every bound held at the cap. It writes nothing when a metric
// is too unsteady to gate.
func runCalibration(n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	worst := make(map[string]float64)
	for _, w := range workloads {
		series := make(map[string][]float64)
		for i := 0; i < n; i++ {
			seed := uint64(1000 + i)
			res, err := runSelf(self, w.Name, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed (its output is above)", w.Name, seed, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				series[name] = append(series[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s run %d/%d done\n", w.Name, i+1, n)
		}
		fmt.Printf("%-14s %-14s %12s %12s %12s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "runs")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(series[d.Name])
			s := spread(series[d.Name])
			fmt.Printf("%-14s %-14s %12.4f %12.4f %12.4f %7.2f%%  %.5g\n", w.Name, d.Name, q1, q2, q3, 100*s, series[d.Name])
			worst[d.Name] = math.Max(worst[d.Name], s)
		}
	}
	bounds, tight, err := boundsFor(worst)
	if err != nil {
		return err
	}
	for _, t := range tight {
		fmt.Println("HELD AT THE CAP -", t)
	}
	if err := writeBenchmarkJSON(benchmarkJSONPath, bounds); err != nil {
		return err
	}
	fmt.Printf("bounds written to %s: %v\n", benchmarkJSONPath, bounds)
	return nil
}

// runSelf runs one untraced run in a child process and parses the result
// line. The child has exited by the time this returns.
func runSelf(self, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("no result line: %w", jerr)
	}
	if !res.Correct {
		os.Stderr.Write(out)
	}
	return res, nil
}
