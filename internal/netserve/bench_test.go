package netserve

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
	"repro/internal/stats"
)

// BenchmarkNetThroughput drives the full network stack — framing, TCP,
// request pipelining, the sharded pool, and real PS-ORAM accesses —
// from 64 concurrent client connections against a 4-shard pool, and
// reports the client-observed p99 alongside ns/op: the loopback serving
// capacity of the whole front-end, not of any single layer.
func BenchmarkNetThroughput(b *testing.B) {
	const (
		conns   = 64
		perConn = 2 // pipelined workers per connection
	)
	pool, err := serve.New(serve.Options{
		Shards:     4,
		NumBlocks:  1024,
		Scheme:     config.SchemePSORAM,
		Levels:     6,
		Seed:       1,
		QueueDepth: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(pool, ServerOptions{MaxInFlight: 2 * perConn})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		pool.Close(ctx)
	}()

	clients := make([]*Client, conns)
	for i := range clients {
		c, err := Dial(ln.Addr().String(), ClientOptions{MaxInFlight: 2 * perConn})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	ctx := context.Background()
	bb := pool.BlockBytes()
	block := make([]byte, bb)
	for i := range block {
		block[i] = byte(i)
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	hists := make([]*stats.Histogram, conns*perConn)
	var next atomic.Uint64
	for ci := 0; ci < conns; ci++ {
		for wi := 0; wi < perConn; wi++ {
			wg.Add(1)
			w := ci*perConn + wi
			hists[w] = new(stats.Histogram)
			go func(c *Client, h *stats.Histogram) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= uint64(b.N) {
						return
					}
					addr := i % 1024
					start := time.Now()
					var err error
					if i%2 == 0 {
						err = c.Write(ctx, addr, block)
					} else {
						_, err = c.Read(ctx, addr)
					}
					if errors.Is(err, serve.ErrOverloaded) {
						continue // shed, retry; still costs wall-clock
					}
					if err != nil {
						b.Error(err)
						return
					}
					h.Observe(uint64(time.Since(start).Nanoseconds()))
				}
			}(clients[ci], hists[w])
		}
	}
	wg.Wait()
	b.StopTimer()

	merged := new(stats.Histogram)
	for _, h := range hists {
		merged.Merge(h)
	}
	b.ReportMetric(float64(merged.Quantile(0.5)), "p50-ns")
	b.ReportMetric(float64(merged.Quantile(0.99)), "p99-ns")
}
