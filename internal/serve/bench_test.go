package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// BenchmarkPoolThroughput measures end-to-end serving throughput —
// submit, queue, batch, protocol access, reply — with concurrent
// clients (b.RunParallel) over a PS-ORAM pool, across shard counts.
//
// Offered load scales with the shard count: 2*shards client goroutines
// per GOMAXPROCS, each with a private address stream (no shared counter
// in the submit loop), so adding shards adds demand instead of slicing
// a fixed demand thinner. ns/op is aggregate (wall time over all
// iterations) — more shards serving concurrently should push it down.
func BenchmarkPoolThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, err := New(Options{
				Shards:    shards,
				NumBlocks: 512,
				Scheme:    config.SchemePSORAM,
				Levels:    8,
				Seed:      1,
				// Deep queues: the benchmark measures service throughput,
				// not load-shedding.
				QueueDepth: 4096,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close(context.Background())
			data := make([]byte, p.BlockBytes())
			var gid atomic.Uint64
			b.SetParallelism(2 * shards)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				// Private stream: goroutines start in disjoint regions of
				// one Weyl sequence, so the hot loop shares no state.
				i := gid.Add(1) << 32
				for pb.Next() {
					i++
					addr := (i * 2654435761) % 512 // scatter across shards
					op, payload := oram.OpRead, []byte(nil)
					if i%2 == 0 {
						op, payload = oram.OpWrite, data
					}
					if _, _, err := p.Access(ctx, op, addr, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
