// Command psoram-server exposes the sharded serving pool over TCP — the
// network face of the "millions of users" story — and doubles as the
// open-loop load generator that grades it against an SLO.
//
// Modes:
//
//	psoram-server -listen :7333                    # serve (SIGTERM = graceful drain)
//	psoram-server -listen :7333 -store /data/oram  # durable shards, survives kill -9
//	psoram-server -load -addr host:7333 -rate 5000 -duration 10s -slo 5ms
//	psoram-server -load -addr host:7333 -check     # differential oracle over the wire
//	psoram-server -self -rate 2000 -duration 2s -check  # in-process server + load (smoke)
//	psoram-server -reshard 8 -addr host:7333       # admin: live re-stripe to 8 shards
//	psoram-server -listen :7333 -reshard 8         # serve; SIGHUP reshards to 8
//
// The serve mode answers SIGTERM/SIGINT with a graceful drain: the
// listener closes, every connection finishes its in-flight requests and
// flushes its replies, then the pool drains and (for -store) every
// shard runs its final persist barrier.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	psoram "repro"
	"repro/internal/config"
	"repro/internal/netserve"
	"repro/internal/oracle"
	"repro/internal/serve"
)

func main() {
	var (
		// Mode selection.
		load = flag.Bool("load", false, "run the open-loop load generator against -addr instead of serving")
		self = flag.Bool("self", false, "in-process smoke: start a server, run the load generator against it, exit")

		// Serve-mode flags.
		listen     = flag.String("listen", "127.0.0.1:7333", "address to serve on (\":0\" picks a free port)")
		shards     = flag.Int("shards", 4, "independent store shards (one goroutine each)")
		blocks     = flag.Uint64("blocks", 4096, "total logical blocks across the pool")
		levels     = flag.Int("levels", 0, "per-shard tree height (0 = derive from block count)")
		schemeName = flag.String("scheme", "PS-ORAM", "persistence scheme (see psoram-oracle -list)")
		seed       = flag.Uint64("seed", 1, "root seed (shards derive independent streams)")
		queue      = flag.Int("queue", 64, "per-shard queue depth (full queue = RETRY_AFTER frames)")
		batch      = flag.Int("batch", 8, "max requests coalesced into one protocol round")
		storeDir   = flag.String("store", "", "back every shard with a durable on-disk store under DIR")
		inflight   = flag.Int("inflight", 64, "per-connection in-flight request cap")
		retryAfter = flag.Duration("retry-after", time.Millisecond, "backoff hint in overload frames")
		crashEvery = flag.Int("crash-every", 0, "fire a simulated power failure every Nth crash point (0 = off)")
		reshardTo  = flag.Int("reshard", 0, "admin: with -addr, reshard the remote server to N shards and exit; when serving, SIGHUP reshards the live pool to N")
		pipeline   = flag.Int("pipeline-depth", 0, "read-combining switch: 1 = off, the strict serial protocol; above 1 = duplicate reads in a round share one access (all such depths behave alike); 0 = default 4")
		groupOps   = flag.Int("group-commit", 0, "batch each durable shard's persist barrier across up to N accesses (0/1 = serial per-access barrier)")
		groupDelay = flag.Duration("group-delay", 0, "max time an idle shard holds an open commit group (0 = small default; needs -group-commit > 1)")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")

		// Load-mode flags.
		addr       = flag.String("addr", "", "server address for -load (defaults to -listen)")
		conns      = flag.Int("conns", 8, "load generator connections")
		rate       = flag.Float64("rate", 1000, "offered load, requests/second (Poisson arrivals)")
		duration   = flag.Duration("duration", 5*time.Second, "load run length")
		writeRatio = flag.Float64("write-ratio", 0.5, "fraction of requests that are writes")
		slo        = flag.Duration("slo", 0, "latency SLO the report grades p99 against (0 = report only)")
		strictSLO  = flag.Bool("strict-slo", false, "exit non-zero when the SLO is missed")
		check      = flag.Bool("check", false, "differential oracle mode: striped sequential streams, every value diffed")
		jsonOut    = flag.Bool("json", false, "emit the load report as JSON")
	)
	flag.Parse()

	switch {
	case *reshardTo > 0 && *addr != "":
		// One-shot admin: drive the remote server's migration over the
		// wire and report the committed topology.
		c, err := netserve.Dial(*addr, netserve.ClientOptions{})
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		newShards, epoch, err := c.Reshard(context.Background(), *reshardTo)
		if err != nil {
			fatal(fmt.Errorf("reshard: %w", err))
		}
		fmt.Printf("psoram-server: resharded to %d shards (epoch %d)\n", newShards, epoch)
	case *self:
		pool, srv, ln := startServer(*listen, *shards, *blocks, *levels, *schemeName, *seed,
			*queue, *batch, *storeDir, *inflight, *retryAfter, *crashEvery, *pipeline, *groupOps, *groupDelay)
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		ok := runLoad(ln.Addr().String(), *conns, *rate, *duration, *writeRatio, *slo, *strictSLO, *check, *jsonOut, *seed)
		shutdown(srv, pool, *drainWait)
		if err := <-serveDone; err != nil && err != netserve.ErrServerClosed {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *load:
		target := *addr
		if target == "" {
			target = *listen
		}
		if !runLoad(target, *conns, *rate, *duration, *writeRatio, *slo, *strictSLO, *check, *jsonOut, *seed) {
			os.Exit(1)
		}
	default:
		pool, srv, ln := startServer(*listen, *shards, *blocks, *levels, *schemeName, *seed,
			*queue, *batch, *storeDir, *inflight, *retryAfter, *crashEvery, *pipeline, *groupOps, *groupDelay)
		fmt.Printf("psoram-server: serving %d blocks on %d shards (%s) at %s\n",
			*blocks, *shards, *schemeName, ln.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		if *reshardTo > 0 {
			// SIGHUP = live reshard to -reshard N, serving throughout.
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for range hup {
					fmt.Printf("psoram-server: SIGHUP: resharding to %d shards\n", *reshardTo)
					if err := pool.Reshard(context.Background(), *reshardTo); err != nil {
						fmt.Fprintf(os.Stderr, "psoram-server: reshard: %v\n", err)
						continue
					}
					fmt.Printf("psoram-server: resharded to %d shards (epoch %d)\n",
						pool.Shards(), pool.Epoch())
				}
			}()
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		select {
		case s := <-sig:
			fmt.Printf("psoram-server: %v: draining (budget %v)\n", s, *drainWait)
			shutdown(srv, pool, *drainWait)
			<-serveDone
		case err := <-serveDone:
			if err != nil && err != netserve.ErrServerClosed {
				fatal(err)
			}
		}
		st := srv.Stats()
		fmt.Println(st.Pool.Table())
		fmt.Println(wireLine(st))
	}
}

// wireLine reports how many reply frames shared each socket write (and
// request frames each read): above 1, the connection writers are
// coalescing replies into fewer syscalls.
func wireLine(st netserve.ServerStats) string {
	per := func(frames, calls uint64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(frames) / float64(calls)
	}
	return fmt.Sprintf("wire: %d frames out in %d writes (%.2f frames/write), %d frames in over %d reads (%.2f frames/read)",
		st.FramesOut, st.WritesOut, per(st.FramesOut, st.WritesOut),
		st.FramesIn, st.ReadsIn, per(st.FramesIn, st.ReadsIn))
}

// startServer builds the pool and front-end and binds the listener.
func startServer(listen string, shards int, blocks uint64, levels int, schemeName string,
	seed uint64, queue, batch int, storeDir string, inflight int,
	retryAfter time.Duration, crashEvery, pipelineDepth, groupOps int,
	groupDelay time.Duration) (*serve.Pool, *netserve.Server, net.Listener) {
	scheme, err := parseScheme(schemeName)
	if err != nil {
		fatal(err)
	}
	pool, err := psoram.NewPool(blocks,
		psoram.WithShards(shards),
		psoram.WithPoolScheme(scheme),
		psoram.WithPoolLevels(levels),
		psoram.WithPoolSeed(seed),
		psoram.WithQueueDepth(queue),
		psoram.WithMaxBatch(batch),
		psoram.WithPoolStorePath(storeDir),
		psoram.WithPoolPipelineDepth(pipelineDepth),
		psoram.WithPoolGroupCommit(groupOps, groupDelay),
	)
	if err != nil {
		fatal(err)
	}
	if crashEvery > 0 {
		var points atomic.Uint64
		n := uint64(crashEvery)
		for s := 0; s < pool.Shards(); s++ {
			if err := pool.ArmCrash(context.Background(), s, func(oracle.CrashSpec) bool {
				return points.Add(1)%n == 0
			}); err != nil {
				fatal(err)
			}
		}
	}
	srv := netserve.NewServer(pool, netserve.ServerOptions{
		MaxInFlight: inflight,
		RetryAfter:  retryAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	return pool, srv, ln
}

// shutdown drains the front-end, then the pool (final persist barriers
// for durable shards).
func shutdown(srv *netserve.Server, pool *serve.Pool, budget time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && err != netserve.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "psoram-server: drain: %v\n", err)
	}
	if err := pool.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "psoram-server: pool close: %v\n", err)
	}
}

// runLoad drives one load run and prints the report; returns success.
func runLoad(addr string, conns int, rate float64, duration time.Duration,
	writeRatio float64, slo time.Duration, strictSLO, check, jsonOut bool, seed uint64) bool {
	rep, err := netserve.RunLoad(context.Background(), netserve.LoadOptions{
		Addr:       addr,
		Conns:      conns,
		Rate:       rate,
		Duration:   duration,
		WriteRatio: writeRatio,
		SLO:        slo,
		Seed:       seed,
		Check:      check,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "psoram-server: load: %v\n", err)
		return false
	}
	if jsonOut {
		js, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(js))
	} else {
		fmt.Println(rep)
	}
	if check {
		if rep.CheckFail > 0 || rep.Errors > 0 {
			fmt.Fprintf(os.Stderr, "psoram-server: FAILED: %d check failures, %d errors\n",
				rep.CheckFail, rep.Errors)
			return false
		}
		fmt.Println("check: all values matched the reference")
	}
	if slo > 0 && !rep.SLOMet && strictSLO {
		fmt.Fprintf(os.Stderr, "psoram-server: SLO missed: p99 %v > %v\n", rep.P99, slo)
		return false
	}
	return rep.Errors == 0
}

func parseScheme(name string) (config.Scheme, error) {
	for _, sc := range config.Schemes() {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (see psoram-oracle -list)", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "psoram-server: %v\n", err)
	os.Exit(1)
}
