package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	psoram "repro"
	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/serve"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 20000, time.Second)
	b := schedule(7, 20000, time.Second)
	c := schedule(8, 20000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 19000 || n > 21000 {
		t.Fatalf("20000/s for 1s gave %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if last := a[len(a)-1]; last >= time.Second.Nanoseconds() {
		t.Fatalf("last arrival due at %d ns, after the phase", last)
	}
	// Cut into windows, every arrival lands in exactly one, due inside it.
	const d = 250 * time.Millisecond
	total := 0
	for i, offs := range cutSchedule(a, d, 4) {
		total += len(offs)
		for k, off := range offs {
			if off < 0 || off >= d.Nanoseconds() || (k > 0 && off < offs[k-1]) {
				t.Fatalf("window %d: arrival %d due at %d ns", i, k, off)
			}
		}
	}
	if total != len(a) {
		t.Fatalf("windows hold %d of %d arrivals", total, len(a))
	}
}

func TestHotSetDeterministicDistinctBalanced(t *testing.T) {
	a, b := hotSet(3, 32768, 8), hotSet(3, 32768, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different hot sets")
	}
	if reflect.DeepEqual(a, hotSet(4, 32768, 8)) {
		t.Fatal("different seeds gave the same hot set")
	}
	seen := map[uint64]bool{}
	perShard := make([]int, numShards)
	for _, x := range a {
		if x >= 32768 || seen[x] {
			t.Fatalf("hot set %v has a duplicate or out-of-range address", a)
		}
		seen[x] = true
		perShard[serve.ShardOf(x, numShards)]++
	}
	if perShard[0] != perShard[1] {
		t.Fatalf("hot set splits %v across the shards", perShard)
	}
	if len(hotSet(1, 1024, 0)) != 0 {
		t.Fatal("a uniform workload has a hot set")
	}
}

func TestStripesPartitionTheKeyspace(t *testing.T) {
	for _, blocks := range []uint64{1024, 1000, 131072} {
		next := uint64(0)
		for w := 0; w < 16; w++ {
			lo, hi := stripe(blocks, w, 16)
			if lo != next || hi <= lo {
				t.Fatalf("blocks %d worker %d owns [%d,%d), want to start at %d", blocks, w, lo, hi, next)
			}
			next = hi
		}
		if next != blocks {
			t.Fatalf("stripes end at %d of %d", next, blocks)
		}
	}
}

func TestWorkerWritesOnlyItsStripeAndNeverTheHotSet(t *testing.T) {
	w, err := workloadByName("hot-read")
	if err != nil {
		t.Fatal(err)
	}
	hot := hotSet(5, w.Blocks, w.HotSet)
	isHot := map[uint64]bool{}
	for _, a := range hot {
		isHot[a] = true
	}
	for worker := 0; worker < w.Workers; worker++ {
		g := newOpGen(w, hot, worker, w.Workers)
		r1, r2 := newPRNG(5, 1, uint64(worker)), newPRNG(5, 1, uint64(worker))
		hotReads := 0
		for i := 0; i < 2000; i++ {
			write, addr := g.pick(r1)
			write2, addr2 := g.pick(r2)
			if write != write2 || addr != addr2 {
				t.Fatal("same seed drew different operations")
			}
			switch {
			case write && (addr < g.lo || addr >= g.hi || isHot[addr]):
				t.Fatalf("worker %d writes %d outside its stripe [%d,%d) or in the hot set", worker, addr, g.lo, g.hi)
			case !write && isHot[addr]:
				hotReads++
			case !write && (addr < g.lo || addr >= g.hi):
				t.Fatalf("worker %d reads cold address %d outside its stripe", worker, addr)
			}
		}
		if hotReads < 1500 {
			t.Fatalf("worker %d made %d hot reads of 2000 ops, want about 1700", worker, hotReads)
		}
	}
}

func TestFillValue(t *testing.T) {
	var a, b [blockBytes]byte
	fillValue(a[:], 9, 0)
	if a != ([blockBytes]byte{}) {
		t.Fatal("version 0 is not the all-zero block")
	}
	fillValue(a[:], 9, 1)
	fillValue(b[:], 9, 2)
	if a == b || a == ([blockBytes]byte{}) {
		t.Fatal("versions do not give distinct values")
	}
	fillValue(b[:], 9, 1)
	if a != b {
		t.Fatal("same address and version gave different values")
	}
}

func TestQuantileAndTailPercentile(t *testing.T) {
	if quantile([]int32(nil), 0.99) != 0 {
		t.Fatal("empty quantile")
	}
	if quantile([]int64{42}, 0.5) != 42 || quantile([]int64{42}, 0.999) != 42 {
		t.Fatal("single-sample quantile")
	}
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0: 1, 0.5: 50, 0.99: 99, 1: 100} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	for n, want := range map[int]float64{0: 50, 9: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9, 100000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("median")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestResultJSONRoundTrips(t *testing.T) {
	r := newResult(header{Workload: "w"}, tally{attempted: 1000, wrong: 1})
	r.Notes = []string{"not part of the line"}
	r.set("ops_per_s", 12345.678)
	r.set("setup_s", 0.8127)
	var buf bytes.Buffer
	r.print(&buf)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var back result
	if err := json.Unmarshal(lines[len(lines)-1], &back); err != nil {
		t.Fatal(err)
	}
	if back.Correct || back.Attempted != 1000 || back.Failed != 1 || !reflect.DeepEqual(back.Metrics, r.Metrics) {
		t.Fatalf("round trip changed the result: %+v", back)
	}
	if back.Metrics["setup_s"] != (value{Value: 0.8127, Unit: "s"}) {
		t.Fatalf("setup_s came back as %+v", back.Metrics["setup_s"])
	}
}

// The metric lists must fit BENCHMARK.json's limits, and the checked-in
// file must be the one this package writes.
func TestMetricDefinitions(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q is malformed or repeated", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0,%v]", d.Name, d.Bound, maxBound)
		}
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := perLayer()
	if len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(layers))
	}
	for _, d := range layers {
		check(d)
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or a why of %d characters", w.Name, len(w.Why))
		}
	}

	checkedIn, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(checkedIn, &doc); err != nil {
		t.Fatal(err)
	}
	bounds := make(map[string]float64)
	for i, d := range doc.EndToEnd {
		bounds[d.Name] = d.Bound
		if i >= len(endToEnd) || d.Bound < endToEnd[i].Bound || d.Bound > maxBound || d.Bound > bounds["setup_s"] {
			t.Errorf("BENCHMARK.json: %s has bound %v, want its floor to setup_s's %v", d.Name, d.Bound, bounds["setup_s"])
		}
	}
	tmp := t.TempDir() + "/BENCHMARK.json"
	if err := writeBenchmarkJSON(tmp, bounds); err != nil {
		t.Fatal(err)
	}
	written, _ := os.ReadFile(tmp)
	if !bytes.Equal(written, checkedIn) {
		t.Error("BENCHMARK.json is not what -calibrate writes from this package; regenerate it")
	}
}

// Bounds are three times the widest spread, never below the floor, with
// setup_s the largest. A metric that wants more than the cap gets the cap
// and is named; one whose spread alone is above the cap is refused.
func TestBoundsFor(t *testing.T) {
	b, tight, err := boundsFor(map[string]float64{"setup_s": 0.40, "ops_per_s": 0.0601, "cpu_us_per_op": 0.01})
	want := map[string]float64{"setup_s": 0.25, "ops_per_s": 0.19, "cpu_us_per_op": 0.05, "peak_rss_mb": 0.05}
	if err != nil || !reflect.DeepEqual(b, want) || len(tight) != 1 || !strings.HasPrefix(tight[0], "setup_s:") {
		t.Errorf("bounds %v (want %v), held at the cap %q, err %v", b, want, tight, err)
	}
	b, tight, err = boundsFor(map[string]float64{"ops_per_s": 0.09})
	if err != nil || b["ops_per_s"] != maxBound || b["setup_s"] != maxBound || len(tight) != 1 || !strings.Contains(tight[0], "2.8 times") {
		t.Errorf("a spread of 9%% wants 27%%: bounds %v, held at the cap %q, err %v", b, tight, err)
	}
	if _, _, err := boundsFor(map[string]float64{"peak_rss_mb": 0.26}); err == nil || !strings.Contains(err.Error(), "peak_rss_mb") {
		t.Errorf("a spread above the cap: want an error naming peak_rss_mb, got %v", err)
	}
}

// The gated closed-phase numbers are the best slice's, each on its own;
// the latency is the fastest slice's; the whole-phase numbers are totals.
func TestClosedStatsBestSlice(t *testing.T) {
	p := phase{slices: []slice{
		{wall: time.Second, cpu: 2 * time.Second, completed: 1000, lat: window{p50Us: 1, p99Us: 9}},
		{wall: time.Second, cpu: time.Second, completed: 2000, lat: window{p50Us: 3, p99Us: 5}},
		{wall: 2 * time.Second, cpu: time.Second, completed: 3000, lat: window{p50Us: 2, p99Us: 7}},
		{wall: time.Second},
	}}
	cs := p.closedStats()
	if cs.opsPerSec != 2000 || cs.cpuUsPerOp != 1e6/3000 || cs.opsPerSecMedian != 1250 || cs.opsPerSecAll != 1200 || cs.cpuUsPerOpAll != 4e6/6000 || cs.completed != 6000 || cs.p50Us != 3 || cs.p99Us != 5 {
		t.Errorf("closedStats = %+v", cs)
	}
	if cs := (&phase{slices: []slice{{wall: time.Second}}}).closedStats(); cs != (closedStats{}) {
		t.Errorf("a phase that completed nothing reads %+v", cs)
	}
}

// Local copies of the facets serve discovers by type assertion.
type (
	clockedFacet  interface{ Cycles() uint64 }
	prefetchFacet interface{ Prefetch(oram.Addr) }
	stagedFacet   interface{ StageNanos() [5]int64 }
	groupedFacet  interface {
		OnCommit(func(error))
		FlushCommits() error
		CommitPending() bool
		SetCommitObserver(func(int, int64))
	}
	crashFacet interface {
		Arm(func(oracle.CrashSpec) bool)
	}
	snapshotFacet interface {
		SaveDurable(io.Writer) error
		SnapshotConfig() config.Config
	}
)

// The timing wrapper must be invisible: 200 operations through a wrapped
// backend and through the stock backend give the same values, leaves,
// simulated cycles and durable image, and every facet is still there.
func TestTimedBackendDifferential(t *testing.T) {
	w := workload{Levels: 6}
	build := func() oracle.Target {
		tg, err := oracle.NewTarget(backendParams(w, config.SchemePSORAM, 11, "", 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		return tg
	}
	stock := build()
	var rec shardRec
	wrapped, err := wrapBackend(build(), &rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapped.(clockedFacet); !ok {
		t.Error("wrapper lost Cycles")
	}
	if _, ok := wrapped.(prefetchFacet); !ok {
		t.Error("wrapper lost Prefetch")
	}
	if _, ok := wrapped.(stagedFacet); !ok {
		t.Error("wrapper lost StageNanos")
	}
	if _, ok := wrapped.(groupedFacet); !ok {
		t.Error("wrapper lost the group-commit facet")
	}
	if _, ok := wrapped.(crashFacet); !ok {
		t.Error("wrapper lost Arm")
	}
	if _, ok := wrapped.(snapshotFacet); !ok {
		t.Error("wrapper lost SaveDurable/SnapshotConfig")
	}
	if _, ok := wrapped.(io.Closer); !ok {
		t.Error("wrapper lost Close")
	}

	r := newPRNG(11, 0xd1ff)
	data := make([]byte, blockBytes)
	for i := 0; i < 200; i++ {
		op, addr := oram.OpRead, oram.Addr(r.next()%100)
		var d []byte
		if r.next()&1 == 1 {
			op, d = oram.OpWrite, data
			fillValue(data, uint64(addr), uint32(i+1))
		}
		if i%3 == 0 {
			stock.(prefetchFacet).Prefetch(addr)
			wrapped.(prefetchFacet).Prefetch(addr)
		}
		v1, l1, err1 := stock.Access(op, addr, d)
		v2, l2, err2 := wrapped.Access(op, addr, d)
		if err1 != nil || err2 != nil {
			t.Fatalf("op %d: %v / %v", i, err1, err2)
		}
		if !bytes.Equal(v1, v2) || l1 != l2 {
			t.Fatalf("op %d: stock returned leaf %d value %x, wrapped leaf %d value %x", i, l1, v1, l2, v2)
		}
	}
	if a, b := stock.(clockedFacet).Cycles(), wrapped.(clockedFacet).Cycles(); a != b {
		t.Errorf("simulated cycles diverged: stock %d, wrapped %d", a, b)
	}
	var img1, img2 bytes.Buffer
	if err := stock.(snapshotFacet).SaveDurable(&img1); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.(snapshotFacet).SaveDurable(&img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1.Bytes(), img2.Bytes()) {
		t.Error("durable images diverged")
	}
	if len(rec.spans) != 200 {
		t.Fatalf("recorded %d backend spans for 200 accesses", len(rec.spans))
	}
	prefetched := 0
	for _, s := range rec.spans {
		if s.end < s.start {
			t.Fatal("a backend span ends before it starts")
		}
		if s.prefetched {
			prefetched++
		}
	}
	if prefetched != 67 {
		t.Errorf("%d spans marked prefetched, want the 67 that followed a Prefetch of their address", prefetched)
	}
	if errs := wrapped.Invariants(); len(errs) != 0 {
		t.Errorf("invariants after the run: %v", errs)
	}
}

// A traced durable pool must behave as a stock one: group commit still
// holds acks (flushes are counted), every request matches a backend span
// and every value reads back.
func TestTracedDurablePoolServes(t *testing.T) {
	ctx := context.Background()
	w := workload{Name: "t", Blocks: 64, Levels: 5, WriteFrac: 0.5, Workers: 4,
		Durable: true, GroupOps: 4, GroupDelay: time.Millisecond}
	rec := new(recorder)
	dir := t.TempDir()
	sys, err := build(w, 3, dir, rec.factory(w, config.SchemePSORAM, 3, dir))
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(w.Blocks)
	if tl := sys.warm(ctx, ref); tl.failed() != 0 || tl.attempted != 64 {
		t.Fatalf("warm: %+v", tl)
	}
	ph := newPhase(keepSpans(newWorkers(w, 3, 1, sys.clients, ref)), true)
	for i := 0; i < 3; i++ {
		ph.runClosed(ctx, 20*time.Millisecond)
	}
	tl := tallyOf(ph.workers)
	if tl.failed() != 0 || tl.attempted == 0 || len(ph.slices) != 3 || ph.closedStats().completed != tl.attempted {
		t.Fatalf("closed phase: %+v in %d slices, %d completed", tl, len(ph.slices), ph.closedStats().completed)
	}
	if ls := ph.latencyStats(time.Second); len(ph.windows) != 3 || ls.samples != tl.attempted || ls.p50Us <= 0 || ls.p50Us > ls.p99Us || ls.saturated || ls.sloMissFrac != 0 {
		t.Errorf("latencies of %d requests in %d windows: %+v", tl.attempted, len(ph.windows), ls)
	}
	if st := sys.stats(); st.flushes == 0 {
		t.Error("no group flushes counted: the group-commit facet was not forwarded")
	}
	m := rec.mark()
	if m.n[0]+m.n[1] == 0 || m.stages[0] == 0 {
		t.Errorf("recorder saw %v spans and stage clocks %v", m.n, m.stages)
	}
	j := join([]*phase{ph}, rec.between(mark{}, m))
	if _, _, matched := j.selfTimes(); matched != len(j.reqs) {
		t.Errorf("%d of %d requests matched a backend span", matched, len(j.reqs))
	}
	vt, notes, err := sys.verify(ctx, 3, ref)
	if err != nil || vt.failed() != 0 {
		t.Fatalf("verify: %v %+v %v", err, vt, notes)
	}
	if err := sys.discard(); err != nil {
		t.Fatal(err)
	}
}

// A paced window sends every arrival of its schedule once, measures from
// the due time, and leaves one window per stretch.
func TestPacedWindows(t *testing.T) {
	ctx := context.Background()
	w := workload{Name: "t", Blocks: 64, Levels: 5, WriteFrac: 0.5, Workers: 4}
	sys, err := build(w, 5, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.discard()
	ref := newReference(w.Blocks)
	sys.warm(ctx, ref)
	sl, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer sl.close()
	const d = 20 * time.Millisecond
	sched := schedule(5, 5000, 3*d)
	ph := newPhase(newWorkers(w, 5, 2, sys.clients, ref), true)
	for _, offs := range cutSchedule(sched, d, 3) {
		ph.runPaced(ctx, sl, offs, d)
	}
	tl := tallyOf(ph.workers)
	ls := ph.latencyStats(time.Second)
	if tl.failed() != 0 || tl.attempted != len(sched) || ph.backlog != 0 || len(ph.windows) != 3 || ls.samples != len(sched) {
		t.Fatalf("%d arrivals: %+v, backlog %d, %d windows, %d samples", len(sched), tl, ph.backlog, len(ph.windows), ls.samples)
	}
	if ls.p50Us <= 0 || ls.p50Us > ls.allP99Us || ls.lateP50Us > ls.allP50Us || ls.sloMissFrac != 0 {
		t.Errorf("latency from due time must include the lateness: %+v", ls)
	}
}

func TestNullFactoryServes(t *testing.T) {
	ctx := context.Background()
	pool, err := psoram.NewPool(16, psoram.WithShards(1), psoram.WithPoolFactory(nullFactory))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close(ctx)
	data := make([]byte, blockBytes)
	fillValue(data, 3, 1)
	if err := pool.Write(ctx, 3, data); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Read(ctx, 3)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %x, %v", got, err)
	}
}

func TestLadderStreamDeterministic(t *testing.T) {
	a, b := ladderStream(2, 512, 100), ladderStream(2, 512, 100)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, ladderStream(3, 512, 100)) {
		t.Fatal("ladder stream is not a function of the seed")
	}
	for _, op := range a {
		if op.addr >= 512 {
			t.Fatalf("address %d outside the tree", op.addr)
		}
	}
}
