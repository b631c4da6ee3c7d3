package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/oram"
)

// TestServeSteadyStateAllocs pins the serving data path's allocation
// budget end to end: submit (pooled request envelope), queue, protocol
// access (allocation-free in the controller), ownership copy, reply.
// The measured value is 1 alloc/op — the one deliberate copy that
// transfers the value from the controller's internal buffer to the
// client. The budget leaves headroom for scheduler noise, not for a
// per-request envelope or channel to creep back in (the old path spent
// ~700 allocs/op here).
func TestServeSteadyStateAllocs(t *testing.T) {
	const budget = 4.0

	p, err := New(Options{
		Shards:     2,
		NumBlocks:  512,
		Scheme:     config.SchemePSORAM,
		Levels:     8,
		Seed:       1,
		QueueDepth: 64,
		Serial:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	ctx := context.Background()
	data := make([]byte, p.BlockBytes())
	for i := uint64(0); i < 2000; i++ {
		if _, _, err := p.Access(ctx, oram.OpWrite, i%512, data); err != nil {
			t.Fatal(err)
		}
	}

	i := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		op, payload := oram.OpRead, []byte(nil)
		if i%2 == 0 {
			op, payload = oram.OpWrite, data
		}
		if _, _, err := p.Access(ctx, op, (i*2654435761)%512, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("steady-state serve access allocates %.2f/op, budget %.1f", allocs, budget)
	}
	t.Logf("steady-state serve allocs/op: %.2f (budget %.1f)", allocs, budget)
}

// TestServePipelinedSteadyStateAllocs pins the same budget with
// read-combining armed (the default). The pipeline may add zero
// steady-state allocations — combine capture buffers and stage cursors
// are all pre-sized at construction.
func TestServePipelinedSteadyStateAllocs(t *testing.T) {
	const budget = 4.0

	p, err := New(Options{
		Shards:     2,
		NumBlocks:  512,
		Scheme:     config.SchemePSORAM,
		Levels:     8,
		Seed:       1,
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	ctx := context.Background()
	data := make([]byte, p.BlockBytes())
	for i := uint64(0); i < 2000; i++ {
		if _, _, err := p.Access(ctx, oram.OpWrite, i%512, data); err != nil {
			t.Fatal(err)
		}
	}

	i := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		op, payload := oram.OpRead, []byte(nil)
		if i%2 == 0 {
			op, payload = oram.OpWrite, data
		}
		if _, _, err := p.Access(ctx, op, (i*2654435761)%512, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("pipelined serve access allocates %.2f/op, budget %.1f", allocs, budget)
	}
	t.Logf("pipelined serve allocs/op: %.2f (budget %.1f)", allocs, budget)
}

// TestServeFileStoreSteadyStateAllocs pins the same end-to-end path
// over file-backed shards. The serving layer adds nothing to the file
// backend's own per-persist cost (~68 allocs/op in the controller, see
// core's file-backed guard), so the budget sits just above core's: a
// regression in either the serving envelope or chunk serialization
// trips it.
func TestServeFileStoreSteadyStateAllocs(t *testing.T) {
	const budget = 90.0

	p, err := New(Options{
		Shards:     2,
		NumBlocks:  512,
		Scheme:     config.SchemePSORAM,
		Levels:     8,
		Seed:       1,
		QueueDepth: 64,
		StoreDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	ctx := context.Background()
	data := make([]byte, p.BlockBytes())
	warm, runs := 2000, 500
	if testing.Short() {
		warm, runs = 400, 100
	}
	for i := uint64(0); i < uint64(warm); i++ {
		if _, _, err := p.Access(ctx, oram.OpWrite, i%512, data); err != nil {
			t.Fatal(err)
		}
	}

	i := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		i++
		op, payload := oram.OpRead, []byte(nil)
		if i%2 == 0 {
			op, payload = oram.OpWrite, data
		}
		if _, _, err := p.Access(ctx, op, (i*2654435761)%512, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("file-backed serve access allocates %.2f/op, budget %.1f", allocs, budget)
	}
	t.Logf("file-backed serve allocs/op: %.2f (budget %.1f)", allocs, budget)
}

// TestServeGroupCommitRoundAllocs pins what a round costs when it ends
// in the worker's idle wait — acks held on an open commit group, queue
// empty — which is every round of a lone caller on a group-commit
// shard. The fake backend accounts for four allocations per access (the
// previous value, the ownership copy, the held reply's closure, the
// ticket list); the wait itself must add none: the worker re-arms one
// timer, where a time.After per wait would cost a timer and its channel
// each round.
func TestServeGroupCommitRoundAllocs(t *testing.T) {
	const budget = 5.0

	b := &ticketBackend{gatedBackend: newGatedBackend(8, 16, nil)}
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8,
		// The group never fills: only the idle flush releases an ack.
		GroupCommitOps: 64, GroupCommitDelay: 20 * time.Microsecond,
		Factory: func(int, uint64) (Backend, error) { return b, nil },
	})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := p.Read(ctx, 3); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Read(ctx, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("group-commit round allocates %.2f/op, budget %.1f", allocs, budget)
	}
	t.Logf("group-commit round allocs/op: %.2f (budget %.1f)", allocs, budget)
}
