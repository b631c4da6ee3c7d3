package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/serve"
)

// Tracing lives in this package only: a client span per request (the
// workers' span logs) and a backend span per physical access, recorded
// by a serve.Factory that wraps the stock backend. Spans stay in memory
// and are written out when the run ends.

// beSpan is one physical access on one shard's backend.
type beSpan struct {
	start, end int64
	local      uint64
	write      bool
	prefetched bool // the worker had prefetched this address's path
}

// stockBackend is everything the stock shard backend (the adapter
// oracle.NewTarget builds around core.Controller) offers the serving
// layer: serve.Backend plus every optional facet serve discovers by
// type assertion. The wrapper embeds it, so each facet is forwarded
// unchanged.
type stockBackend interface {
	serve.Backend
	Cycles() uint64
	Prefetch(addr oram.Addr)
	StageNanos() [5]int64
	OnCommit(fn func(error))
	FlushCommits() error
	CommitPending() bool
	SetCommitObserver(fn func(ops int, persistNanos int64))
	Arm(fire func(oracle.CrashSpec) bool)
	SaveDurable(w io.Writer) error
	SnapshotConfig() config.Config
	io.Closer
}

// shardRec collects one shard's backend spans. The shard's worker is the
// only writer; the lock orders its appends against the run's reads.
type shardRec struct {
	mu     sync.Mutex
	spans  []beSpan
	stages [5]int64 // the backend's cumulative StageNanos after its last access
	pfAddr oram.Addr
	pfSet  bool
}

// timedBackend times Access and notes Prefetch; everything else is the
// embedded stock backend's own method.
type timedBackend struct {
	stockBackend
	rec *shardRec
}

func (b *timedBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	start := nowNs()
	v, leaf, err := b.stockBackend.Access(op, addr, data)
	end := nowNs()
	r := b.rec
	r.mu.Lock()
	r.spans = append(r.spans, beSpan{start: start, end: end, local: uint64(addr), write: op == oram.OpWrite,
		prefetched: r.pfSet && r.pfAddr == addr})
	r.stages = b.stockBackend.StageNanos()
	r.pfSet = false
	r.mu.Unlock()
	return v, leaf, err
}

func (b *timedBackend) Prefetch(addr oram.Addr) {
	b.rec.mu.Lock()
	b.rec.pfAddr, b.rec.pfSet = addr, true
	b.rec.mu.Unlock()
	b.stockBackend.Prefetch(addr)
}

// recorder holds the backend spans of every shard of one traced pool.
type recorder struct{ shards [numShards]shardRec }

// backendParams are the parameters of shard s of a traced pool: the
// scheme the stock pool reports, the workload's height and group commit,
// a seed of the shard's own, and for a durable workload a directory of
// the shard's own under storeDir (a pool with a Factory leaves store
// directories to the factory).
func backendParams(w workload, scheme config.Scheme, seed uint64, storeDir string, s int, local uint64) oracle.Params {
	p := oracle.Params{
		Scheme:    scheme,
		NumBlocks: local,
		Levels:    w.Levels,
		Seed:      splitmix64(seed ^ uint64(s)<<32),
	}
	if w.Durable {
		p.StoreDir = filepath.Join(storeDir, fmt.Sprintf("shard-%d", s))
		p.GroupCommitOps, p.GroupCommitDelay = w.GroupOps, w.GroupDelay
	}
	return p
}

// factory builds each shard's stock backend and wraps it.
func (rec *recorder) factory(w workload, scheme config.Scheme, seed uint64, storeDir string) serve.Factory {
	return func(s int, local uint64) (serve.Backend, error) {
		t, err := oracle.NewTarget(backendParams(w, scheme, seed, storeDir, s, local))
		if err != nil {
			return nil, err
		}
		return wrapBackend(t, &rec.shards[s])
	}
}

func wrapBackend(t oracle.Target, rec *shardRec) (serve.Backend, error) {
	sb, ok := t.(stockBackend)
	if !ok {
		return nil, fmt.Errorf("trace: %T does not offer every facet of the stock backend", t)
	}
	return &timedBackend{stockBackend: sb, rec: rec}, nil
}

// nullFactory builds shards with the protocol removed: the plain store
// behind SchemeNonORAM. What is left is the serving layers' own cost.
func nullFactory(s int, local uint64) (serve.Backend, error) {
	t, err := oracle.NewTarget(oracle.Params{Scheme: config.SchemeNonORAM, NumBlocks: local})
	if err != nil {
		return nil, err
	}
	b, ok := t.(serve.Backend)
	if !ok {
		return nil, fmt.Errorf("trace: %T is not a serve.Backend", t)
	}
	return b, nil
}

// mark is a point in a traced run: how many spans each shard holds and
// the stage clocks summed over the shards.
type mark struct {
	n      [numShards]int
	stages [5]int64
}

func (rec *recorder) mark() mark {
	var m mark
	for s := range rec.shards {
		r := &rec.shards[s]
		r.mu.Lock()
		m.n[s] = len(r.spans)
		for k, v := range r.stages {
			m.stages[k] += v
		}
		r.mu.Unlock()
	}
	return m
}

// between returns each shard's spans recorded between two marks.
func (rec *recorder) between(a, b mark) [numShards][]beSpan {
	var out [numShards][]beSpan
	for s := range rec.shards {
		r := &rec.shards[s]
		r.mu.Lock()
		out[s] = r.spans[a.n[s]:b.n[s]:b.n[s]]
		r.mu.Unlock()
	}
	return out
}

// keepSpans makes the workers record every request as a client span.
func keepSpans(ws []*worker) []*worker {
	for _, wk := range ws {
		wk.spans = new(spanLog)
	}
	return ws
}

// reqSpan is a client span with its place in the trace: an id, and the
// backend span that served it.
type reqSpan struct {
	span
	id      int
	phase   int // index into the phases given to join
	worker  int
	shard   int
	backend int // index into the shard's spans, -1 when none matched
}

// joined is the request spans of some phases linked to the backend spans
// that served them.
type joined struct {
	reqs    []reqSpan
	be      [numShards][]beSpan
	parents [numShards][][]int // request ids per backend span
}

// join links every successful request to the physical access that
// produced its reply: the last access to its address that lies inside
// the request's own interval. A worker is the only client of its stripe,
// so there the match is the one access it caused; reads of a hot address
// combined in one round all match the round's one physical access.
func join(phases []*phase, be [numShards][]beSpan) joined {
	j := joined{be: be}
	byAddr := make([]map[uint64][]int, numShards)
	for s := range be {
		byAddr[s] = make(map[uint64][]int)
		j.parents[s] = make([][]int, len(be[s]))
		for i, b := range be[s] {
			byAddr[s][b.local] = append(byAddr[s][b.local], i)
		}
	}
	for pi, p := range phases {
		for wi, wk := range p.workers {
			wk.spans.each(func(sp *span) {
				r := reqSpan{span: *sp, id: len(j.reqs), phase: pi, worker: wi, backend: -1}
				r.shard = serve.ShardOf(uint64(sp.addr), numShards)
				if sp.ok {
					cand := byAddr[r.shard][uint64(sp.addr)/numShards]
					spans := be[r.shard]
					// First candidate that ends after the reply arrived; the one
					// before it is the last access finished in time.
					k := sort.Search(len(cand), func(i int) bool { return spans[cand[i]].end > sp.done })
					if k > 0 && spans[cand[k-1]].start >= sp.sent {
						r.backend = cand[k-1]
						j.parents[r.shard][r.backend] = append(j.parents[r.shard][r.backend], r.id)
					}
				}
				j.reqs = append(j.reqs, r)
			})
		}
	}
	return j
}

// selfTimes is what the join says about where a request's time goes: the
// mean backend span, and the mean request self time (request span minus
// its child), which is queue wait plus whatever serving layers sit
// between the client and the backend.
func (j joined) selfTimes() (backendUs, queueWaitUs float64, matched int) {
	var beSum, selfSum float64
	for _, r := range j.reqs {
		if r.backend < 0 {
			continue
		}
		b := j.be[r.shard][r.backend]
		beSum += float64(b.end - b.start)
		selfSum += float64((r.done - r.sent) - (b.end - b.start))
		matched++
	}
	if matched == 0 {
		return 0, 0, 0
	}
	return beSum / float64(matched) / 1e3, selfSum / float64(matched) / 1e3, matched
}

// traceFileSpans caps how many request spans of each phase the span
// file holds; the metrics use all of them.
const traceFileSpans = 10000

// writeTrace writes, for each phase, the first traceFileSpans requests
// in due order and the backend spans they caused, as JSON lines: a
// request names its backend span, a backend span names every request it
// served.
func (j joined) writeTrace(path string, hdr header, phaseNames []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"kind":"header","workload":%q,"seed":%d,"commit":%q,"requests_total":%d,"requests_per_phase_written":%d,"times":"ns since process start"}`+"\n",
		hdr.Workload, hdr.Seed, hdr.Commit, len(j.reqs), traceFileSpans)
	byPhase := make([][]int, len(phaseNames))
	for i, r := range j.reqs {
		byPhase[r.phase] = append(byPhase[r.phase], i)
	}
	seen := make(map[[2]int]bool)
	for pi, ids := range byPhase {
		sort.Slice(ids, func(a, b int) bool { return j.reqs[ids[a]].due < j.reqs[ids[b]].due })
		for _, i := range ids[:min(len(ids), traceFileSpans)] {
			r := j.reqs[i]
			op := "read"
			if r.write {
				op = "write"
			}
			fmt.Fprintf(w, `{"kind":"request","id":%d,"phase":%q,"worker":%d,"op":%q,"addr":%d,"shard":%d,"local":%d,"due":%d,"sent":%d,"done":%d,"ok":%v,"backend":%d}`+"\n",
				r.id, phaseNames[pi], r.worker, op, r.addr, r.shard, r.addr/numShards, r.due, r.sent, r.done, r.ok, r.backend)
			if r.backend < 0 || seen[[2]int{r.shard, r.backend}] {
				continue
			}
			seen[[2]int{r.shard, r.backend}] = true
			b := j.be[r.shard][r.backend]
			requests, _ := json.Marshal(j.parents[r.shard][r.backend]) // a slice of ints cannot fail
			fmt.Fprintf(w, `{"kind":"backend","shard":%d,"index":%d,"local":%d,"write":%v,"prefetched":%v,"start":%d,"end":%d,"requests":%s}`+"\n",
				r.shard, r.backend, b.local, b.write, b.prefetched, b.start, b.end, requests)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
