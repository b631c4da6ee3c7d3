package main

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// epoch anchors every timestamp of a run; spans hold nanoseconds since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// client is the surface both transports share: *serve.Pool in process,
// *netserve.Client over TCP.
type client interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
}

// span is one request as the generator saw it. In the closed loop a
// request is due when it is sent; in the open loop it is due on the
// schedule, and latency counts from there.
type span struct {
	due, sent, done int64
	addr            uint32
	write           bool
	ok              bool
}

// spanLog keeps every span of a traced run, in fixed chunks so that
// recording never copies what it already holds. An untraced run keeps no
// spans: a worker folds each request into the few numbers its phase
// reports (see worker.note), so the process's memory is the system's and
// not the generator's.
type spanLog struct{ chunks [][]span }

const spanChunk = 1 << 14

func (l *spanLog) add(s span) {
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == spanChunk {
		l.chunks = append(l.chunks, make([]span, 0, spanChunk))
	}
	n := len(l.chunks) - 1
	l.chunks[n] = append(l.chunks[n], s)
}

func (l *spanLog) each(f func(*span)) {
	if l == nil {
		return
	}
	for _, c := range l.chunks {
		for i := range c {
			f(&c[i])
		}
	}
}

// reference holds the version every address is expected to carry. Only
// the owner of an address's stripe writes it, and phases run one after
// the other, so no two goroutines touch one entry at a time.
type reference struct{ ver []uint32 }

// unknownBit marks an address whose last write failed: its value may be
// either version, so reads of it are not diffed until a write succeeds.
const unknownBit = 1 << 31

func newReference(blocks uint64) *reference { return &reference{ver: make([]uint32, blocks)} }

// opGen draws one worker's operations: writes and cold reads inside its
// own stripe, hot reads from the shared hot set (written once in set-up
// and never again, so any worker knows their value).
type opGen struct {
	writeFrac, hotFrac float64
	lo, hi             uint64
	hot                []uint64
	isHot              map[uint64]bool
}

func newOpGen(w workload, hot []uint64, worker, workers int) opGen {
	g := opGen{writeFrac: w.WriteFrac, hotFrac: w.HotFrac, hot: hot, isHot: make(map[uint64]bool, len(hot))}
	g.lo, g.hi = stripe(w.Blocks, worker, workers)
	for _, a := range hot {
		g.isHot[a] = true
	}
	return g
}

func (g *opGen) pick(r *prng) (write bool, addr uint64) {
	write = r.float() < g.writeFrac
	if !write && len(g.hot) > 0 && r.float() < g.hotFrac {
		return false, g.hot[r.next()%uint64(len(g.hot))]
	}
	addr = g.lo + r.next()%(g.hi-g.lo)
	return write && !g.isHot[addr], addr
}

// worker is one synchronous requester: it sends, waits for the reply,
// checks the value and notes the outcome.
type worker struct {
	c    client
	gen  opGen
	rng  *prng
	ref  *reference
	buf  [blockBytes]byte
	want [blockBytes]byte

	attempted, errs, refused, wrong int

	// What the current phase keeps of each request: a latSample when
	// its latencies are wanted (a paced phase, the traced run's pair
	// phase), everything when spans is set (the traced run's traced
	// phases), and otherwise only the counts above.
	start int64 // start of the current stretch, ns
	lats  []latSample
	spans *spanLog
}

// latSample is one request's timing: when it was due (us since the
// stretch's start), how late it was sent and how long after its due time it
// completed (ns; lat is -1 when it failed or returned a wrong value). In
// a closed loop a request is due when it is sent.
type latSample struct {
	dueUs     uint32
	late, lat int32
}

// note folds one finished request into the phase's records.
func (wk *worker) note(s span) {
	wk.attempted++
	if wk.spans != nil {
		wk.spans.add(s)
	}
	if wk.lats != nil {
		ls := latSample{dueUs: uint32((s.due - wk.start) / 1e3), late: clampNs(s.sent - s.due), lat: -1}
		if s.ok {
			ls.lat = clampNs(s.done - s.due)
		}
		wk.lats = append(wk.lats, ls)
	}
}

func clampNs(d int64) int32 { return int32(min(max(d, 0), 1<<31-1)) }

func newWorkers(w workload, seed uint64, phase uint64, clients []client, ref *reference) []*worker {
	hot := hotSet(seed, w.Blocks, w.HotSet)
	ws := make([]*worker, w.Workers)
	for i := range ws {
		ws[i] = &worker{
			c:   clients[i%len(clients)],
			gen: newOpGen(w, hot, i, w.Workers),
			rng: newPRNG(seed, phase, uint64(i)),
			ref: ref,
		}
	}
	return ws
}

// do runs one drawn operation. due is 0 in the closed loop.
func (wk *worker) do(ctx context.Context, due int64) {
	write, addr := wk.gen.pick(wk.rng)
	wk.access(ctx, write, addr, due)
}

func (wk *worker) access(ctx context.Context, write bool, addr uint64, due int64) {
	s := span{due: due, addr: uint32(addr), write: write}
	var err error
	if write {
		v := wk.ref.ver[addr]&^unknownBit + 1
		fillValue(wk.buf[:], addr, v)
		s.sent = nowNs()
		err = wk.c.Write(ctx, addr, wk.buf[:])
		s.done = nowNs()
		if err != nil {
			v |= unknownBit
		}
		wk.ref.ver[addr] = v
		s.ok = err == nil
	} else {
		var got []byte
		s.sent = nowNs()
		got, err = wk.c.Read(ctx, addr)
		s.done = nowNs()
		s.ok = err == nil
		if v := wk.ref.ver[addr]; err == nil && v&unknownBit == 0 {
			fillValue(wk.want[:], addr, v)
			if !bytes.Equal(got, wk.want[:]) {
				wk.wrong++
				s.ok = false
			}
		}
	}
	if s.due == 0 {
		s.due = s.sent
	}
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrOverloaded):
		wk.refused++
	default:
		wk.errs++
	}
	wk.note(s)
}

// tally sums the workers' outcome counts.
type tally struct{ attempted, errs, refused, wrong int }

func (t tally) failed() int { return t.errs + t.refused + t.wrong }

// completed is the requests that came back with the right value.
func (t tally) completed() int { return t.attempted - t.failed() }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errs += o.errs
	t.refused += o.refused
	t.wrong += o.wrong
}

func tallyOf(ws []*worker) tally {
	var t tally
	for _, wk := range ws {
		t.attempted += wk.attempted
		t.errs += wk.errs
		t.refused += wk.refused
		t.wrong += wk.wrong
	}
	return t
}

// phase is one kind of load on one set of workers. It runs a stretch at
// a time (runClosed, runPaced), so that a run can alternate two phases
// and each of them sees the whole of the run's time.
type phase struct {
	workers []*worker
	slices  []slice // closed: one per stretch

	// One window per stretch. A paced phase also keeps every good
	// request's latency and every request's lateness in ns, for the
	// whole-phase percentiles; a closed phase makes fifteen times the
	// requests and keeps only the windows, so that the generator's memory
	// stays out of peak_rss_mb.
	windows   []window
	keepAll   bool
	lat, late []int32
	noLatency int // failed, refused or wrong
	backlog   int // paced: arrivals that were never sent
}

// slice is one stretch of a closed loop, measured on its own: wall time,
// the process's user+sys CPU time, completions and their latency.
type slice struct {
	wall, cpu time.Duration
	completed int
	lat       window // send to reply; zero when nothing completed
}

// window is the latency of one stretch: its median, its p99, and how
// much later the generator sent in its last quarter than in its first.
type window struct {
	p50Us, p99Us float64
	lateGrowth   time.Duration
}

// latencyRoom is what a worker reserves for one stretch's samples.
const latencyRoom = 1 << 12

// newPhase is a phase on the given workers, each keeping a latSample per
// request of the current stretch.
func newPhase(workers []*worker, keepAll bool) *phase {
	for _, wk := range workers {
		wk.lats = make([]latSample, 0, latencyRoom)
	}
	return &phase{workers: workers, keepAll: keepAll}
}

// runClosed keeps len(workers) requests outstanding for d: every worker
// sends until the deadline, and the stretch ends when the last of them
// has its reply.
func (p *phase) runClosed(ctx context.Context, d time.Duration) {
	before := tallyOf(p.workers)
	cpu0, t0 := processCPU(), nowNs()
	deadline := t0 + d.Nanoseconds()
	var wg sync.WaitGroup
	for _, wk := range p.workers {
		wk.start = t0
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for nowNs() < deadline {
				wk.do(ctx, 0)
			}
		}(wk)
	}
	wg.Wait()
	p.slices = append(p.slices, slice{
		wall:      time.Duration(nowNs() - t0),
		cpu:       processCPU() - cpu0,
		completed: tallyOf(p.workers).completed() - before.completed(),
		lat:       p.harvest(d),
	})
}

// pacedGrace bounds how long past its end a paced stretch may keep
// working off a backlog before the rest is counted as never sent.
const pacedGrace = time.Second

// spinBelow is the wait the dispatcher spins out instead of sleeping: a
// sleep costs a system call and wakes tens of microseconds late.
const spinBelow = 10 * time.Microsecond

// runPaced drives one stretch of an open-loop schedule: offs are the due
// times from the stretch's start, all before d. One dispatcher walks
// them, sleeping to each due time and releasing at once whatever is
// already due; arrival k goes to worker k mod W, so a worker owns every
// W-th arrival and its own stripe. A worker that is busy when its next
// arrival is released starts it late, and the latency counts from the
// due time either way. The stretch ends when every arrival has its reply.
func (p *phase) runPaced(ctx context.Context, sl *sleeper, offs []int64, d time.Duration) {
	// Each queue has room for the worker's whole share of the stretch, so
	// the dispatcher never blocks behind a slow worker.
	queues := make([]chan int64, len(p.workers))
	for i := range queues {
		queues[i] = make(chan int64, len(offs)/len(p.workers)+1)
	}
	start := nowNs() + int64(100*time.Microsecond)
	giveUp := start + (d + pacedGrace).Nanoseconds()
	var wg sync.WaitGroup
	unsent := make([]int, len(p.workers))
	for i, wk := range p.workers {
		wk.start = start
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			for due := range queues[i] {
				if nowNs() > giveUp {
					unsent[i]++
					continue
				}
				wk.do(ctx, due)
			}
		}(i, wk)
	}
	for k, off := range offs {
		due := start + off
		for d := due - nowNs(); d > 0; d = due - nowNs() {
			if d > spinBelow.Nanoseconds() {
				sl.sleep(time.Duration(d))
			}
		}
		queues[k%len(p.workers)] <- due
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for _, n := range unsent {
		p.backlog += n
	}
	p.harvest(d)
}

// harvest folds the samples the workers kept over the stretch of length
// d just run into the phase, as one more window (which it returns) and,
// with keepAll, the samples themselves. A stretch in which nothing
// succeeded leaves no window.
func (p *phase) harvest(d time.Duration) window {
	var lat []int32
	var quarter [4][]int32
	for _, wk := range p.workers {
		for _, s := range wk.lats {
			if p.keepAll {
				p.late = append(p.late, s.late)
			}
			q := min(int64(s.dueUs)*4/d.Microseconds(), 3)
			quarter[q] = append(quarter[q], s.late)
			if s.lat < 0 {
				p.noLatency++
				continue
			}
			lat = append(lat, s.lat)
		}
		wk.lats = wk.lats[:0]
	}
	if len(lat) == 0 {
		return window{}
	}
	slices.Sort(lat)
	slices.Sort(quarter[0])
	slices.Sort(quarter[3])
	w := window{
		p50Us:      float64(quantile(lat, 0.50)) / 1e3,
		p99Us:      float64(quantile(lat, 0.99)) / 1e3,
		lateGrowth: time.Duration(quantile(quarter[3], 0.5) - quantile(quarter[0], 0.5)),
	}
	p.windows = append(p.windows, w)
	if p.keepAll {
		p.lat = append(p.lat, lat...)
	}
	return w
}

// closedStats summarises a closed phase. The gated numbers are the best
// slice's, each on its own: what disturbs a slice on a shared box only
// ever slows it, so the fastest slice is the one nearest the speed the
// code runs at when left alone (see README.md, "Best slice").
type closedStats struct {
	opsPerSec, cpuUsPerOp       float64 // highest rate, lowest CPU per op of any slice
	p50Us, p99Us                float64 // send to reply, in the fastest slice
	opsPerSecMedian             float64 // median slice
	opsPerSecAll, cpuUsPerOpAll float64 // whole phase
	completed                   int
}

// sliceOps is every slice's completions per second, in order.
func (p *phase) sliceOps() []float64 {
	ops := make([]float64, len(p.slices))
	for i, s := range p.slices {
		ops[i] = float64(s.completed) / s.wall.Seconds()
	}
	return ops
}

func (p *phase) closedStats() closedStats {
	var cs closedStats
	var wall, cpu time.Duration
	ops := p.sliceOps()
	for i, s := range p.slices {
		wall, cpu, cs.completed = wall+s.wall, cpu+s.cpu, cs.completed+s.completed
		if s.completed == 0 {
			continue
		}
		if c := float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.completed); cs.cpuUsPerOp == 0 || c < cs.cpuUsPerOp {
			cs.cpuUsPerOp = c
		}
		if ops[i] > cs.opsPerSec {
			cs.opsPerSec, cs.p50Us, cs.p99Us = ops[i], s.lat.p50Us, s.lat.p99Us
		}
	}
	if cs.completed == 0 {
		return cs
	}
	cs.opsPerSecMedian = median(ops)
	cs.opsPerSecAll = float64(cs.completed) / wall.Seconds()
	cs.cpuUsPerOpAll = float64(cpu.Nanoseconds()) / 1e3 / float64(cs.completed)
	return cs
}

// windowSeries is every window's p50 and p99 in us, in order.
func (p *phase) windowSeries() (p50, p99 []float64) {
	for _, w := range p.windows {
		p50, p99 = append(p50, w.p50Us), append(p99, w.p99Us)
	}
	return p50, p99
}

// latencyStats summarises a paced phase, or the traced run's pair phase
// (closed, with keepAll set). In a paced phase latency runs from the due
// time. A request that failed, was refused or returned a wrong value has
// no latency and counts as missing the limit.
type latencyStats struct {
	p50Us, p99Us       float64 // median window
	winP50Us, winP99Us []float64
	samples            int
	allP50Us, allP99Us float64 // whole phase
	tailPct, tailUs    float64 // highest percentile with >= 10 samples beyond it
	p999Us             float64
	lateP50Us          float64 // how late the generator sent, sent - due
	lateP99Us          float64
	sloMissFrac        float64
	saturated          bool
}

func (p *phase) latencyStats(slo time.Duration) latencyStats {
	ls := latencyStats{samples: len(p.lat)}
	missed := p.backlog + p.noLatency
	if attempted := p.backlog + len(p.late); attempted > 0 {
		for _, l := range p.lat {
			if int64(l) > slo.Nanoseconds() {
				missed++
			}
		}
		ls.sloMissFrac = float64(missed) / float64(attempted)
	}
	if len(p.windows) == 0 {
		ls.saturated = true
		return ls
	}
	ls.winP50Us, ls.winP99Us = p.windowSeries()
	ls.p50Us, ls.p99Us = median(ls.winP50Us), median(ls.winP99Us)
	all, late := slices.Clone(p.lat), slices.Clone(p.late)
	slices.Sort(all)
	slices.Sort(late)
	ls.allP50Us = float64(quantile(all, 0.50)) / 1e3
	ls.allP99Us = float64(quantile(all, 0.99)) / 1e3
	ls.p999Us = float64(quantile(all, 0.999)) / 1e3
	ls.tailPct = tailPercentile(len(all))
	ls.tailUs = float64(quantile(all, ls.tailPct/100)) / 1e3
	ls.lateP50Us = float64(quantile(late, 0.50)) / 1e3
	ls.lateP99Us = float64(quantile(late, 0.99)) / 1e3
	// A generator that keeps up is about equally late all the way through
	// a stretch; lateness that grows from a stretch's first quarter to its
	// last, in the usual stretch, means a queue grows whenever the load is
	// on and the latencies describe the stretch length, not the system.
	var growth []float64
	for _, w := range p.windows {
		growth = append(growth, float64(w.lateGrowth))
	}
	ls.saturated = p.backlog > 0 || median(growth) > float64(slo.Nanoseconds())
	return ls
}

// quantile is the nearest-rank quantile of an ascending slice (0 when
// empty).
func quantile[T int32 | int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile is the highest of the usual percentiles that still has
// at least ten of n samples beyond it (50 when even p90 does not).
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []struct {
		pct   float64
		oneIn int // one sample in this many lies beyond the percentile
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n/p.oneIn >= 10 {
			best = p.pct
		}
	}
	return best
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
