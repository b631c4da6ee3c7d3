package serve

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// ShardStats is a point-in-time snapshot of one shard's counters. The
// JSON form is the wire shape served by the network front-end's stats
// frame (internal/netserve).
type ShardStats struct {
	Shard  int    `json:"shard"`
	Blocks uint64 `json:"blocks"`

	// Request accounting.
	Submitted  uint64 `json:"submitted"`  // accepted into the queue
	Rejected   uint64 `json:"rejected"`   // bounced with ErrOverloaded
	Completed  uint64 `json:"completed"`  // executed (including crash-recovered accesses)
	Expired    uint64 `json:"expired"`    // context dead at dequeue; backend untouched
	Crashes    uint64 `json:"crashes"`    // injected power failures observed
	Recoveries uint64 `json:"recoveries"` // successful §4.3 recoveries

	// Scheduler shape.
	Batches    uint64  `json:"batches"`    // protocol rounds run
	BatchMean  float64 `json:"batch_mean"` // mean requests coalesced per round
	BatchMax   uint64  `json:"batch_max"`
	Combined   uint64  `json:"combined"`    // reads served from a round-mate's physical access
	QueueDepth int     `json:"queue_depth"` // queued requests at snapshot time

	// Service time per access: wall nanoseconds inside the backend, the
	// sum of the access's stage times below (queueing and reply hand-off
	// excluded). Zero for backends without a stage clock (NonORAM).
	ServiceMeanNs float64 `json:"service_ns_mean"`
	ServiceP50Ns  uint64  `json:"service_ns_p50"`
	ServiceP99Ns  uint64  `json:"service_ns_p99"`
	ServiceMaxNs  uint64  `json:"service_ns_max"`

	// Per-stage wall time per access (load / crypto / evict / seal /
	// persist), nanoseconds. Empty for backends without a stage clock.
	Stages []StageStats `json:"stages,omitempty"`

	// Group-commit shape: persist barriers run, accesses covered per
	// barrier, and barrier wall time from flush to durable. All zero
	// when group commit is off.
	Flushes       uint64  `json:"flushes,omitempty"`
	GroupMean     float64 `json:"group_mean,omitempty"`
	GroupMax      uint64  `json:"group_max,omitempty"`
	PersistMeanNs float64 `json:"persist_mean_ns,omitempty"`
	PersistP50Ns  uint64  `json:"persist_p50_ns,omitempty"`
	PersistP99Ns  uint64  `json:"persist_p99_ns,omitempty"`
	PersistMaxNs  uint64  `json:"persist_max_ns,omitempty"`
}

// StageStats is the latency histogram summary for one protocol stage.
type StageStats struct {
	Name   string  `json:"name"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// PoolStats aggregates every shard's snapshot.
type PoolStats struct {
	// Epoch is the routing epoch (bumped by each committed Reshard) and
	// Resharding reports an in-flight migration; mid-reshard, Shards
	// holds the serving (old) set and the replacement set is not
	// snapshotted (its counters fold in once the reshard commits).
	Epoch      uint64       `json:"epoch"`
	Resharding bool         `json:"resharding,omitempty"`
	Shards     []ShardStats `json:"shards"`
}

// Totals sums the request accounting across shards.
func (ps PoolStats) Totals() (submitted, rejected, completed, crashes uint64) {
	for _, s := range ps.Shards {
		submitted += s.Submitted
		rejected += s.Rejected
		completed += s.Completed
		crashes += s.Crashes
	}
	return
}

// Stats snapshots every serving shard. Safe to call while the pool is
// serving, including mid-reshard (the snapshot covers whichever shard
// set the current routing table serves from).
func (p *Pool) Stats() PoolStats {
	rt := p.router.Load()
	ps := PoolStats{
		Epoch:      rt.epoch,
		Resharding: rt.next != nil,
		Shards:     make([]ShardStats, len(rt.shards)),
	}
	for i, sh := range rt.shards {
		s := ShardStats{
			Shard:      sh.id,
			Blocks:     sh.blocks,
			Submitted:  sh.submitted.Load(),
			Rejected:   sh.rejected.Load(),
			Completed:  sh.completed.Load(),
			Expired:    sh.expired.Load(),
			Crashes:    sh.crashes.Load(),
			Recoveries: sh.recoveries.Load(),
			Batches:    sh.batches.Load(),
			Combined:   sh.combined.Load(),
			Flushes:    sh.flushes.Load(),
			QueueDepth: len(sh.queue),
		}
		sh.mu.Lock()
		s.BatchMean = sh.batch.Mean()
		s.BatchMax = sh.batch.Max()
		s.ServiceMeanNs = sh.serviceNs.Mean()
		s.ServiceP50Ns = sh.serviceNs.Quantile(0.50)
		s.ServiceP99Ns = sh.serviceNs.Quantile(0.99)
		s.ServiceMaxNs = sh.serviceNs.Max()
		if sh.stages != nil {
			s.Stages = make([]StageStats, len(sh.stageHist))
			for k := range sh.stageHist {
				h := &sh.stageHist[k]
				s.Stages[k] = StageStats{
					Name:   core.StageNames[k],
					MeanNs: h.Mean(),
					P50Ns:  h.Quantile(0.50),
					P99Ns:  h.Quantile(0.99),
					MaxNs:  h.Max(),
				}
			}
		}
		if sh.grouped != nil {
			s.GroupMean = sh.groupHist.Mean()
			s.GroupMax = sh.groupHist.Max()
			s.PersistMeanNs = sh.persistNs.Mean()
			s.PersistP50Ns = sh.persistNs.Quantile(0.50)
			s.PersistP99Ns = sh.persistNs.Quantile(0.99)
			s.PersistMaxNs = sh.persistNs.Max()
		}
		sh.mu.Unlock()
		ps.Shards[i] = s
	}
	return ps
}

// Table renders the snapshot as a per-shard text table (what
// `psoram serve` and `psoram load` print).
func (ps PoolStats) Table() *stats.Table {
	tab := stats.NewTable("Per-shard serving stats (service time: wall ns inside the backend)",
		"Shard", "Blocks", "Done", "Rejected", "Expired", "Crash/Rec",
		"Rounds", "Batch avg", "Combined", "SvcP50", "SvcP99", "SvcMax")
	for _, s := range ps.Shards {
		tab.AddRow(
			fmt.Sprintf("%d", s.Shard),
			fmt.Sprintf("%d", s.Blocks),
			fmt.Sprintf("%d", s.Completed),
			fmt.Sprintf("%d", s.Rejected),
			fmt.Sprintf("%d", s.Expired),
			fmt.Sprintf("%d/%d", s.Crashes, s.Recoveries),
			fmt.Sprintf("%d", s.Batches),
			fmt.Sprintf("%.2f", s.BatchMean),
			fmt.Sprintf("%d", s.Combined),
			fmt.Sprintf("%d", s.ServiceP50Ns),
			fmt.Sprintf("%d", s.ServiceP99Ns),
			fmt.Sprintf("%d", s.ServiceMaxNs),
		)
	}
	return tab
}

// StageTable renders the per-stage latency histograms (one row per
// shard×stage), or nil when no shard has a stage clock.
func (ps PoolStats) StageTable() *stats.Table {
	any := false
	for _, s := range ps.Shards {
		if len(s.Stages) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	tab := stats.NewTable("Per-stage access latency (wall ns: load / crypto / evict / seal / persist)",
		"Shard", "Stage", "Mean", "P50", "P99", "Max")
	for _, s := range ps.Shards {
		for _, st := range s.Stages {
			tab.AddRow(
				fmt.Sprintf("%d", s.Shard),
				st.Name,
				fmt.Sprintf("%.0f", st.MeanNs),
				fmt.Sprintf("%d", st.P50Ns),
				fmt.Sprintf("%d", st.P99Ns),
				fmt.Sprintf("%d", st.MaxNs),
			)
		}
	}
	return tab
}

// GroupTable renders the group-commit shape (barriers run, accesses
// amortized per barrier, barrier latency), or nil when no shard ran a
// group barrier.
func (ps PoolStats) GroupTable() *stats.Table {
	any := false
	for _, s := range ps.Shards {
		if s.Flushes > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	tab := stats.NewTable("Group commit (persist barriers amortized over accesses)",
		"Shard", "Flushes", "Group avg", "Group max", "Persist P50", "Persist P99", "Persist max")
	for _, s := range ps.Shards {
		tab.AddRow(
			fmt.Sprintf("%d", s.Shard),
			fmt.Sprintf("%d", s.Flushes),
			fmt.Sprintf("%.2f", s.GroupMean),
			fmt.Sprintf("%d", s.GroupMax),
			fmt.Sprintf("%v", time.Duration(s.PersistP50Ns)),
			fmt.Sprintf("%v", time.Duration(s.PersistP99Ns)),
			fmt.Sprintf("%v", time.Duration(s.PersistMaxNs)),
		)
	}
	return tab
}
