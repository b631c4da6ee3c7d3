package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: what the phases of one run
// add up to.
const runSeconds = 32

// metricDef is one named metric. Bound (end-to-end only) is the share of
// the parent's median by which the metric may get worse; the values here
// are the floors (the issue's table), and -calibrate raises them to three
// times the measured run-to-run spread.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// maxBound is the widest bound BENCHMARK.json may carry.
const maxBound = 0.25

// endToEnd are the metrics a user of the service sees, the same on every
// workload. The issue's seventh, fail_frac, is not among them: it is 0 on
// every healthy run, an end-to-end metric may never be 0, and a bound
// that is a share of 0 gates nothing. Failures are `failed` out of
// `attempted` on every run, loadgen.fail_frac in the traced run, and a
// non-zero exit code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer lists every per-layer metric: the ladder rungs, then the
// in-run counters of the traced workload.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range ladderRungs {
		for _, l := range r.levels {
			out = append(out,
				metricDef{Name: rungMetric(r.name, l, "ns"), Unit: "ns/op", Better: "lower"},
				metricDef{Name: rungMetric(r.name, l, "allocs"), Unit: "allocs/op", Better: "lower"},
				metricDef{Name: rungMetric(r.name, l, "self_ns"), Unit: "ns/op", Better: "lower"})
		}
	}
	for _, l := range ladderLevels {
		out = append(out, metricDef{Name: fmt.Sprintf("mem.sim_cycles_per_access.L%d", l), Unit: "cycles", Better: "lower"})
	}
	return append(out, counterMetrics...)
}

// counterMetrics are read from public stats and the benchmark's own
// spans after the traced workload.
var counterMetrics = []metricDef{
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.combined_frac", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.expired_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.backend_span_us", Unit: "us", Better: "lower"},
	{Name: "core.stage_load_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_crypto_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_seal_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_persist_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_sum_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.prefetch_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "filestore.flushes_per_op", Unit: "ratio", Better: "lower"},
	{Name: "filestore.group_mean", Unit: "count", Better: "higher"},
	{Name: "filestore.persist_p50_us", Unit: "us", Better: "lower"},
	{Name: "filestore.persist_p99_us", Unit: "us", Better: "lower"},
	{Name: "filestore.written_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "filestore.write_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "filestore.store_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "netserve.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "netserve.retry_after_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "loadgen.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lat_p99_all_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.closed_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.closed_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.pair_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.pair_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.slo_miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.saturated", Unit: "count", Better: "lower"},
	{Name: "loadgen.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.null_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its JSON form is the line the driver
// reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Header header   `json:"-"`
	Notes  []string `json:"-"`
	tally  tally    // what failed, for the printed summary
}

func newResult(h header, t tally) result {
	return result{
		Header:    h,
		Correct:   t.failed() == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics:   make(map[string]value),
		tally:     t,
	}
}

var metricUnits = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer() {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric under its declared unit; an undeclared name is a
// bug in this package.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	r.Metrics[name] = value{Value: v, Unit: unit}
}

// print writes the machine-stamped header, the notes and a metric
// table, then the one-line JSON object as the last line.
func (r result) print(w io.Writer) {
	h, _ := json.Marshal(r.Header) // strings, numbers and a string map cannot fail
	fmt.Fprintln(w, "# header", string(h))
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d (%d errors or arrivals never sent, %d refused, %d wrong values), correct %v\n",
		r.Attempted, r.Failed, r.tally.errs, r.tally.refused, r.tally.wrong, r.Correct)
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, string(b))
}

// benchmarkJSON is BENCHMARK.json: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bounds: Bound is omitted when 0
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSONPath is where -calibrate, the only writer, puts the
// file: the root of the checkout the program runs in.
const benchmarkJSONPath = "BENCHMARK.json"

// writeBenchmarkJSON writes BENCHMARK.json from this package's
// definitions with the given end-to-end bounds.
func writeBenchmarkJSON(path string, bounds map[string]float64) error {
	doc := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		d.Bound = bounds[d.Name]
		doc.EndToEnd = append(doc.EndToEnd, d)
	}
	doc.PerLayer = perLayer()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
