package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	psoram "repro"
	"repro/internal/netserve"
	"repro/internal/serve"
)

// runTraced is the traced run: the per-layer numbers. A part is a fifth
// of the requested seconds:
//
//  1. closed slices on the stock, untraced stack (the base for the
//     tracing overhead), and 2. pair slices on the same stack: one
//     synchronous caller per client group, for the latency of a request
//     that waits behind nothing;
//  3. half a part of closed slices on a stack with the protocol removed
//     (what the generator itself can offer);
//  4. closed slices and 5. paced windows on the traced stack, whose
//     spans and public stats give the in-run counters;
//  6. the ladder, which runs a fixed number of operations per rung and
//     takes what it takes.
func runTraced(ctx context.Context, cfg runConfig) (result, error) {
	w := cfg.w
	part := time.Duration(cfg.seconds) * time.Second / 5

	// 1 and 2. Untraced base.
	sys, ref, _, total, err := setUp(ctx, w, cfg.seed, cfg.storeRoot, nil, 1)
	if err != nil {
		return result{}, err
	}
	hdr, scheme := newHeader(cfg, sys), sys.pool.Scheme()
	n := int(part / sliceLen)
	base := newPhase(newWorkers(w, cfg.seed, 1, sys.clients, ref), false)
	pair := newPhase(newWorkers(pairOf(w), cfg.seed, 3, sys.clients, ref), true)
	for i := 0; i < n; i++ {
		base.runClosed(ctx, sliceLen)
	}
	for i := 0; i < n; i++ {
		pair.runClosed(ctx, sliceLen)
	}
	total.add(tallyOf(base.workers))
	total.add(tallyOf(pair.workers))
	if err := sys.discard(); err != nil {
		return result{}, err
	}

	// 3. Null backend in the workload's closed shape.
	nw := w
	nw.Durable = false
	null, err := build(nw, cfg.seed, "", nullFactory)
	if err != nil {
		return result{}, err
	}
	nullPhase := newPhase(newWorkers(nw, cfg.seed, 1, null.clients, newReference(w.Blocks)), false)
	for i := 0; i < n/2; i++ {
		nullPhase.runClosed(ctx, sliceLen)
	}
	total.add(tallyOf(nullPhase.workers))
	if err := null.discard(); err != nil {
		return result{}, err
	}

	// 4 and 5. Traced stack.
	rec := new(recorder)
	sys, ref, _, warmT, err := setUp(ctx, w, cfg.seed, cfg.storeRoot,
		func(dir string) serve.Factory { return rec.factory(w, scheme, cfg.seed, dir) }, 1)
	if err != nil {
		return result{}, err
	}
	defer sys.discard()
	total.add(warmT)
	m0, io0, st0 := rec.mark(), readProcIO(), sys.stats()
	sl, err := newSleeper()
	if err != nil {
		return result{}, err
	}
	defer sl.close()
	closed := newPhase(keepSpans(newWorkers(w, cfg.seed, 1, sys.clients, ref)), false)
	paced := newPhase(keepSpans(newWorkers(w, cfg.seed, 2, sys.clients, ref)), true)
	for i := 0; i < n; i++ {
		closed.runClosed(ctx, sliceLen)
	}
	for _, offs := range cutSchedule(schedule(cfg.seed, w.Rate, time.Duration(n)*windowLen), windowLen, n) {
		paced.runPaced(ctx, sl, offs, windowLen)
	}
	m2, io1, st1 := rec.mark(), readProcIO(), sys.stats()
	storeBytes := dirBytes(sys.storeDir)
	total.add(tallyOf(closed.workers))
	total.add(tallyOf(paced.workers))
	total.attempted += paced.backlog
	total.errs += paced.backlog
	phaseT := tallyOf(closed.workers)
	phaseT.add(tallyOf(paced.workers))

	vt, notes, err := sys.verify(ctx, cfg.seed, ref)
	if err != nil {
		return result{}, err
	}
	total.add(vt)

	res := newResult(hdr, total)
	res.Notes = notes
	bs, ns, cs, ps := base.closedStats(), nullPhase.closedStats(), closed.closedStats(), paced.latencyStats(w.SLO)
	ops := float64(phaseT.attempted)
	d := st1.sub(st0)

	res.set("trace.overhead_frac", 1-cs.opsPerSec/bs.opsPerSec)
	res.set("loadgen.null_ops_per_s", ns.opsPerSec)
	res.Notes = append(res.Notes, fmt.Sprintf("closed, best slice: untraced %.0f ops/s, traced %.0f ops/s, null backend %.0f ops/s (%.1fx the paced rate of %.0f/s)",
		bs.opsPerSec, cs.opsPerSec, ns.opsPerSec, ns.opsPerSec/w.Rate, w.Rate))

	res.set("serve.batch_mean", ratio(d.completed+d.expired, d.batches))
	res.set("serve.combined_frac", ratio(d.combined, d.completed))
	res.set("serve.rejected_frac", ratio(d.rejected, ops))
	res.set("serve.expired_frac", ratio(d.expired, ops))

	j := join([]*phase{closed, paced}, rec.between(m0, m2))
	backendUs, waitUs, matched := j.selfTimes()
	res.set("serve.backend_span_us", backendUs)
	res.set("serve.queue_wait_us", waitUs)
	res.Notes = append(res.Notes, fmt.Sprintf("trace: %d request spans, %d matched to one of %d backend spans",
		len(j.reqs), matched, len(j.be[0])+len(j.be[1])))

	// Stage clocks: mean per physical access over the two traced phases,
	// and their sum as a share of the measured backend span. The stage
	// timers cover the protocol's stages and not the calls around them,
	// so a share well below 1 means time is going somewhere the stage
	// clock does not look.
	accesses, prefetched := 0.0, 0.0
	var spanSum float64
	for s := range j.be {
		for _, b := range j.be[s] {
			accesses++
			spanSum += float64(b.end - b.start)
			if b.prefetched {
				prefetched++
			}
		}
	}
	var stageSum float64
	for k, name := range []string{"load", "crypto", "evict", "seal", "persist"} {
		v := ratio(float64(m2.stages[k]-m0.stages[k]), accesses)
		stageSum += v
		res.set("core.stage_"+name+"_ns", v)
	}
	res.set("core.stage_sum_frac", ratio(stageSum, ratio(spanSum, accesses)))
	res.set("core.prefetch_hit_frac", ratio(prefetched, accesses))

	res.set("filestore.flushes_per_op", ratio(d.flushes, ops))
	res.set("filestore.group_mean", st1.groupMean)
	res.set("filestore.persist_p50_us", st1.persistP50Ns/1e3)
	res.set("filestore.persist_p99_us", st1.persistP99Ns/1e3)
	if w.Durable {
		res.set("filestore.written_bytes_per_op", ratio(io1.wchar-io0.wchar, ops))
		res.set("filestore.write_syscalls_per_op", ratio(io1.syscw-io0.syscw, ops))
		res.set("filestore.store_bytes_per_user_byte", ratio(storeBytes, float64(w.Blocks*blockBytes)))
	} else {
		res.set("filestore.written_bytes_per_op", 0)
		res.set("filestore.write_syscalls_per_op", 0)
		res.set("filestore.store_bytes_per_user_byte", 0)
	}
	res.set("netserve.frames_per_op", ratio(d.frames, ops))
	res.set("netserve.retry_after_frac", ratio(float64(phaseT.refused), ops))

	res.set("loadgen.late_p50_us", ps.lateP50Us)
	res.set("loadgen.late_p99_us", ps.lateP99Us)
	res.set("loadgen.backlog_end", float64(paced.backlog))
	res.set("loadgen.lat_p50_us", ps.p50Us)
	res.set("loadgen.lat_p99_us", ps.p99Us)
	res.set("loadgen.lat_p99_all_us", ps.allP99Us)
	res.set("loadgen.lat_p999_us", ps.p999Us)
	res.set("loadgen.slo_miss_frac", ps.sloMissFrac)
	res.set("loadgen.saturated", b2f(ps.saturated))
	res.set("loadgen.fail_frac", ratio(float64(total.failed()), float64(total.attempted)))
	res.set("loadgen.closed_p50_us", bs.p50Us)
	res.set("loadgen.closed_p99_us", bs.p99Us)
	ls := pair.latencyStats(w.SLO)
	res.set("loadgen.pair_p50_us", ls.p50Us)
	res.set("loadgen.pair_p99_us", ls.p99Us)
	res.Notes = append(res.Notes, fmt.Sprintf("pair: %d samples from %d synchronous callers, send to reply: median window p50 %.1f us p99 %.1f us, whole phase p%g %.1f us",
		ls.samples, clientGroups, ls.p50Us, ls.p99Us, ls.tailPct, ls.tailUs))
	res.Notes = append(res.Notes, fmt.Sprintf("paced (traced): %d samples, median window p50 %.1f us p99 %.1f us, whole phase p%g %.1f us, saturated %v",
		ps.samples, ps.p50Us, ps.p99Us, ps.tailPct, ps.tailUs, ps.saturated))

	if err := runLadder(ctx, cfg.seed, &res); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.Name, cfg.seed))
	if err := j.writeTrace(tracePath, hdr, []string{"closed", "paced"}); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	res.Notes = append(res.Notes, "trace: spans written to "+tracePath)
	return res, nil
}

// pairOf is the workload with one worker per client group: the shape of
// the pair phase.
func pairOf(w workload) workload {
	w.Workers = clientGroups
	return w
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// stackStats is what the public stats of the stack say, summed over the
// shards: serve.Pool.Stats and, on the TCP workload, netserve.Server.Stats.
type stackStats struct {
	completed, rejected, expired, batches, combined, flushes float64
	frames                                                   float64
	groupMean, persistP50Ns, persistP99Ns                    float64
}

func (sys *system) stats() stackStats {
	var ps psoram.PoolStats
	var st stackStats
	if sys.srv != nil {
		var ss netserve.ServerStats = sys.srv.Stats()
		ps = ss.Pool
		st.frames = float64(ss.FramesIn + ss.FramesOut)
	} else {
		ps = sys.pool.Stats()
	}
	for _, s := range ps.Shards {
		st.completed += float64(s.Completed)
		st.rejected += float64(s.Rejected)
		st.expired += float64(s.Expired)
		st.batches += float64(s.Batches)
		st.combined += float64(s.Combined)
		st.flushes += float64(s.Flushes)
		st.groupMean += s.GroupMean / float64(len(ps.Shards))
		st.persistP50Ns += float64(s.PersistP50Ns) / float64(len(ps.Shards))
		st.persistP99Ns = max(st.persistP99Ns, float64(s.PersistP99Ns))
	}
	return st
}

// sub is the change in the counters since an earlier snapshot; the
// histogram summaries stay as they are now.
func (a stackStats) sub(b stackStats) stackStats {
	a.completed -= b.completed
	a.rejected -= b.rejected
	a.expired -= b.expired
	a.batches -= b.batches
	a.combined -= b.combined
	a.flushes -= b.flushes
	a.frames -= b.frames
	return a
}
