package main

// The serving subcommands: serve, load.

import (
	"context"
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
)

// poolFlags are the serving pool's flags, declared once for the two
// subcommands that build a pool.
type poolFlags struct {
	shards     *int
	blocks     *uint64
	levels     *intList
	scheme     *string
	seed       *uint64
	queue      *int
	batch      *int
	storeDir   *string
	serial     *bool
	groupOps   *int
	groupDelay *time.Duration
	crashEvery *int
}

func declarePoolFlags(fs *flag.FlagSet) poolFlags {
	return poolFlags{
		shards:     fs.Int("shards", 4, "independent store shards (one goroutine each)"),
		blocks:     blocksFlag(fs, 1024),
		levels:     levelsFlag(fs, "per-shard tree height (0 = derive from block count)", 0),
		scheme:     schemeFlag(fs),
		seed:       seedFlag(fs),
		queue:      fs.Int("queue", 64, "per-shard queue depth (a full queue answers ErrOverloaded / RETRY_AFTER)"),
		batch:      fs.Int("batch", 8, "max requests coalesced into one protocol round"),
		storeDir:   fs.String("store", "", "keep durable on-disk stores under DIR (create-or-recover; flat schemes only)"),
		serial:     fs.Bool("serial", false, "read-combining off: every request is its own physical access, the strict serial protocol"),
		groupOps:   fs.Int("group-commit", 0, "batch each durable shard's persist barrier across up to N accesses (0/1 = serial per-access barrier)"),
		groupDelay: fs.Duration("group-delay", 0, "max time an idle shard holds an open commit group (0 = small default; needs -group-commit > 1)"),
		crashEvery: fs.Int("crash-every", 0, "fire a simulated power failure every Nth crash point (0 = off)"),
	}
}

// build turns the parsed flags into a running pool, crash injector armed.
func (f poolFlags) build() *psoram.Pool {
	scheme, err := config.ParseScheme(*f.scheme)
	if err != nil {
		fatal(err)
	}
	opts := []psoram.PoolOption{
		psoram.WithShards(*f.shards),
		psoram.WithPoolScheme(scheme),
		psoram.WithPoolLevels(f.levels.one("levels")),
		psoram.WithPoolSeed(*f.seed),
		psoram.WithQueueDepth(*f.queue),
		psoram.WithMaxBatch(*f.batch),
		psoram.WithPoolStorePath(*f.storeDir),
		psoram.WithPoolGroupCommit(*f.groupOps, *f.groupDelay),
	}
	if *f.serial {
		opts = append(opts, psoram.WithPoolSerial())
	}
	pool, err := psoram.NewPool(*f.blocks, opts...)
	if err != nil {
		fatal(err)
	}
	if n := uint64(*f.crashEvery); n > 0 {
		var points atomic.Uint64
		armCrash(pool, func(psoram.CrashPoint) bool { return points.Add(1)%n == 0 })
	}
	return pool
}

// armCrash installs fire on every shard of the serving set (nil disarms).
func armCrash(pool *psoram.Pool, fire func(psoram.CrashPoint) bool) {
	for s := 0; s < pool.Shards(); s++ {
		if err := pool.ArmCrash(context.Background(), s, fire); err != nil {
			fatal(err)
		}
	}
}

// listenAndServe fronts pool with a TCP server on addr and returns it
// with the bound address and the channel Serve's result arrives on.
func listenAndServe(pool *psoram.Pool, addr string, opts netserve.ServerOptions) (*netserve.Server, net.Addr, <-chan error) {
	opts.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	srv := netserve.NewServer(pool, opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr(), done
}

// shutdown drains the front-end, then the pool (final persist barriers
// for durable shards).
func shutdown(srv *netserve.Server, pool *psoram.Pool, budget time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil && err != netserve.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "psoram %s: drain: %v\n", current, err)
		}
	}
	if err := pool.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "psoram %s: pool close: %v\n", current, err)
	}
}

// runServe exposes the sharded serving pool over TCP. SIGTERM/SIGINT
// start a graceful drain: the listener closes, every connection
// finishes its in-flight requests and flushes its replies, then the
// pool drains and (for -store) every shard runs its final persist
// barrier. With -reshard N, SIGHUP re-stripes the live pool to N shards.
//
//	psoram serve -listen :7333
//	psoram serve -listen :7333 -store /data/oram   # durable shards, survives kill -9
//	psoram serve -listen :7333 -reshard 8          # SIGHUP reshards to 8
func runServe(args []string) {
	fs := newFlagSet()
	var (
		pf         = declarePoolFlags(fs)
		listen     = fs.String("listen", "127.0.0.1:7333", "address to serve on (\":0\" picks a free port)")
		inflight   = fs.Int("inflight", 64, "per-connection in-flight request cap")
		retryAfter = fs.Duration("retry-after", time.Millisecond, "backoff hint in overload frames")
		reshardTo  = reshardFlag(fs, "on SIGHUP")
		drainWait  = fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
	)
	fs.Parse(args)
	pool := pf.build()
	srv, addr, served := listenAndServe(pool, *listen, netserve.ServerOptions{MaxInFlight: *inflight, RetryAfter: *retryAfter})
	fmt.Printf("psoram serve: serving %d blocks on %d shards (%s) at %s\n",
		pool.NumBlocks(), pool.Shards(), pool.Scheme(), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if *reshardTo > 0 {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				fmt.Printf("psoram serve: SIGHUP: resharding to %d shards\n", *reshardTo)
				if err := pool.Reshard(context.Background(), *reshardTo); err != nil {
					fmt.Fprintf(os.Stderr, "psoram serve: reshard: %v\n", err)
					continue
				}
				fmt.Printf("psoram serve: resharded to %d shards (epoch %d)\n", pool.Shards(), pool.Epoch())
			}
		}()
	}
	select {
	case s := <-sig:
		fmt.Printf("psoram serve: %v: draining (budget %v)\n", s, *drainWait)
		shutdown(srv, pool, *drainWait)
		<-served
	case err := <-served:
		if err != nil && err != netserve.ErrServerClosed {
			fatal(err)
		}
	}
	st := srv.Stats()
	fmt.Println(st.Pool.Table())
	// Above 1 frame per write (or read), the connection writers are
	// coalescing replies into fewer syscalls.
	per := func(frames, calls uint64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(frames) / float64(calls)
	}
	fmt.Printf("wire: %d frames out in %d writes (%.2f frames/write), %d frames in over %d reads (%.2f frames/read)\n",
		st.FramesOut, st.WritesOut, per(st.FramesOut, st.WritesOut),
		st.FramesIn, st.ReadsIn, per(st.FramesIn, st.ReadsIn))
}

// runLoad is the open-loop load generator (netserve.RunLoad) and, with
// -check, the differential oracle run through the serving path: every
// stream owns a disjoint address stripe, diffs each value against a
// private reference and sweeps the stripe at the end.
//
// -transport inproc builds a pool from the pool flags and drives it
// directly. -transport tcp drives a server: the one at -addr, or, with
// no -addr, one this process builds from the pool flags and fronts on a
// loopback port. Whenever the process owns the pool, -crash-every arms
// its crash injector, and a -check run ends with the pool's structural
// invariants and prints its per-shard tables. -reshard N re-stripes the
// pool halfway through the run, through the pool or over the wire; with
// -duration 0 it does only that.
//
//	psoram load -check -crash-every 300 -reshard 6          # in process
//	psoram load -transport tcp -check -crash-every 300      # own server over loopback
//	psoram load -transport tcp -addr host:7333 -rate 5000 -duration 10s -slo 5ms
//	psoram load -transport tcp -addr host:7333 -reshard 8 -duration 0
func runLoad(args []string) {
	fs := newFlagSet()
	var (
		pf         = declarePoolFlags(fs)
		transport  = fs.String("transport", "inproc", "inproc: drive a pool built here; tcp: drive a server over the wire")
		addr       = fs.String("addr", "", "tcp: server address (empty = build a server here, on a loopback port)")
		conns      = fs.Int("conns", 8, "concurrent request streams (tcp: one connection each)")
		rate       = fs.Float64("rate", 1000, "offered load, requests/second (Poisson arrivals)")
		duration   = fs.Duration("duration", 5*time.Second, "load run length")
		writeRatio = fs.Float64("write-ratio", 0.5, "fraction of requests that are writes")
		slo        = fs.Duration("slo", 0, "latency SLO the report grades p99 against (0 = report only)")
		strictSLO  = fs.Bool("strict-slo", false, "exit non-zero when the SLO is missed")
		check      = fs.Bool("check", false, "differential oracle mode: striped sequential streams, every value diffed")
		jsonPath   = jsonFlag(fs)
		reshardTo  = reshardFlag(fs, "halfway through the run")
	)
	fs.Parse(args)
	if *transport != "inproc" && *transport != "tcp" {
		fatal(fmt.Errorf("-transport %q: want inproc or tcp", *transport))
	}
	if *conns < 1 {
		fatal(fmt.Errorf("need at least 1 stream"))
	}
	ctx := context.Background()

	// Stand up what the transport needs: a pool when this process owns
	// one, a server in front of it for tcp, the connections to drive.
	var (
		pool    *psoram.Pool
		srv     *netserve.Server
		targets []netserve.Target
		info    netserve.Info
		reshard func() (shards int, epoch uint64, err error)
	)
	if *transport == "inproc" || *addr == "" {
		pool = pf.build()
	}
	if *transport == "inproc" {
		targets = []netserve.Target{pool}
		info = netserve.Info{NumBlocks: pool.NumBlocks(), BlockBytes: uint32(pool.BlockBytes())}
		reshard = func() (int, uint64, error) {
			err := pool.Reshard(ctx, *reshardTo)
			return pool.Shards(), pool.Epoch(), err
		}
	} else {
		if pool != nil {
			var bound net.Addr
			srv, bound, _ = listenAndServe(pool, "127.0.0.1:0", netserve.ServerOptions{})
			*addr = bound.String()
		}
		for i := 0; i < *conns; i++ {
			c, err := netserve.Dial(*addr, netserve.ClientOptions{MaxInFlight: 2 * netserve.MaxOutstanding / *conns})
			if err != nil {
				fatal(err)
			}
			defer c.Close()
			targets = append(targets, c)
		}
		admin := targets[0].(*netserve.Client)
		var err error
		if info, err = admin.Info(ctx); err != nil {
			fatal(fmt.Errorf("info handshake: %w", err))
		}
		reshard = func() (int, uint64, error) { return admin.Reshard(ctx, *reshardTo) }
	}
	reshardAndReport := func() error {
		shards, epoch, err := reshard()
		if err == nil {
			fmt.Printf("psoram load: resharded to %d shards (epoch %d)\n", shards, epoch)
		}
		return err
	}

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "psoram load: "+format+"\n", args...)
	}
	if *reshardTo > 0 && *duration == 0 {
		if err := reshardAndReport(); err != nil {
			fail("reshard to %d: %v", *reshardTo, err)
		}
	} else {
		resharded := make(chan error, 1)
		if *reshardTo > 0 {
			time.AfterFunc(*duration/2, func() { resharded <- reshardAndReport() })
		} else {
			resharded <- nil
		}
		rep, err := netserve.RunLoad(ctx, targets, info, netserve.LoadOptions{
			Conns:      *conns,
			Rate:       *rate,
			Duration:   *duration,
			WriteRatio: *writeRatio,
			SLO:        *slo,
			Seed:       *pf.seed,
			Check:      *check,
		})
		if err != nil && rep.Errors == 0 {
			fatal(err) // no request failed: the run itself never started
		}
		if err != nil {
			fail("%v", err)
		}
		// The arrival clock runs for the whole duration, so the reshard
		// has fired by now; wait for it to finish.
		if err := <-resharded; err != nil {
			fail("reshard to %d: %v", *reshardTo, err)
		}
		if *jsonPath != "" {
			if err := emitJSON(*jsonPath, rep); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintln(summaryOut(*jsonPath), rep)
		if *slo > 0 && !rep.SLOMet && *strictSLO {
			fail("SLO missed: p99 %v > %v", rep.P99, *slo)
		}
	}

	if pool != nil {
		armCrash(pool, nil)
		if *check {
			for _, err := range pool.Invariants(ctx) {
				fail("%v", err)
			}
		}
		st := pool.Stats()
		shutdown(srv, pool, 30*time.Second)
		fmt.Println(st.Table())
		if stages := st.StageTable(); stages != nil {
			fmt.Println(stages)
		}
		if groups := st.GroupTable(); groups != nil {
			fmt.Println(groups)
		}
	}
	switch {
	case failed:
		fmt.Fprintln(os.Stderr, "psoram load: FAILED")
		os.Exit(1)
	case *check && pool != nil:
		fmt.Println("check: all values matched the reference, invariants clean")
	case *check:
		fmt.Println("check: all values matched the reference")
	}
}
