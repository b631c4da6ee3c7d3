package main

import (
	"fmt"
	"math"
	"time"
)

// Every workload runs the same pool shape: two shards, two client
// groups (one netserve connection each on the TCP workload), every
// other option at its psoram.NewPool default.
const (
	numShards    = 2
	clientGroups = 2
	blockBytes   = 64
)

// workload is one traffic mix. The paced rate is pinned here, at the
// highest of the probed rates that left the median latency near its
// light-load value on the box the benchmark was defined on (see
// README.md); it is never derived at run time, so a slower system shows
// up as latency, not as a lighter load.
type workload struct {
	Name string
	Why  string

	TCP    bool   // through netserve over loopback, else in-process serve.Pool
	Blocks uint64 // total logical blocks
	Levels int    // forced per-shard tree height

	WriteFrac float64 // share of ops that are writes
	HotFrac   float64 // share of reads that go to the hot set
	HotSet    int     // hot-set size (0 = uniform)

	Workers int     // outstanding requests (closed) and paced workers (open)
	Rate    float64 // paced arrivals per second
	SLO     time.Duration

	Durable    bool // shards on internal/storage/filestore
	GroupOps   int
	GroupDelay time.Duration
}

// workloads are the gated workloads, the ones BENCHMARK.json lists.
var workloads = []workload{
	{
		Name:   "mem-deep",
		Why:    "uniform 50% writes on L=16 in-memory shards: the image is far beyond the CPU caches, so the O(L) protocol cost dominates",
		Blocks: 131072, Levels: 16, WriteFrac: 0.5,
		Workers: 16, Rate: 12000, SLO: time.Millisecond,
	},
	{
		Name: "net-shallow",
		Why:  "netserve over loopback TCP onto L=8 shards that fit in L2: per-message framing, syscalls and hand-offs dominate a short access",
		TCP:  true, Blocks: 1024, Levels: 8, WriteFrac: 0.5,
		Workers: 8, Rate: 10000, SLO: time.Millisecond,
	},
	{
		Name:   "hot-read",
		Why:    "95% reads, 90% of them to 8 hot addresses, on L=14 shards: duplicate reads in a round exercise read-combining and prefetch, which uniform traffic bypasses",
		Blocks: 32768, Levels: 14, WriteFrac: 0.05, HotFrac: 0.9, HotSet: 8,
		Workers: 16, Rate: 20000, SLO: time.Millisecond,
	},
}

// durableGroup runs by name but is not gated: filestore fsyncs, and the
// benchmark may write only inside its checkout, so its store sits on
// the checkout's disk, where six consecutive runs read 369 to 935 ops/s.
// Run it by hand with -store-root on a tmpfs (11.5k to 13.5k ops/s
// there) for the number the filestore code itself is responsible for;
// the pinned rate assumes that.
var durableGroup = workload{
	Name:   "durable-group",
	Why:    "filestore shards with group commit K=16/2ms at L=10: chunk encode, CRC and the write/rename/fsync barrier dominate; protocol changes should read no change",
	Blocks: 1024, Levels: 10, WriteFrac: 0.5,
	Workers: 32, Rate: 4000, SLO: 20 * time.Millisecond,
	Durable: true, GroupOps: 16, GroupDelay: 2 * time.Millisecond,
}

func workloadByName(name string) (workload, error) {
	for _, w := range append(workloads[:len(workloads):len(workloads)], durableGroup) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 is the seed-to-stream hash every generator here uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prng is a splitmix64 sequence. The benchmark keeps its own generator,
// not internal/rng: a change to the repository must not change the
// inputs the benchmark feeds it.
type prng struct{ s uint64 }

func newPRNG(seed uint64, coords ...uint64) *prng {
	s := splitmix64(seed)
	for _, c := range coords {
		s = splitmix64(s ^ c)
	}
	return &prng{s: s}
}

func (r *prng) next() uint64 {
	x := splitmix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return x
}

// float returns a uniform value in [0,1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fillValue writes the one value address addr may hold at version ver.
// Version 0 is the store's initial all-zero block.
func fillValue(buf []byte, addr uint64, ver uint32) {
	if ver == 0 {
		clear(buf)
		return
	}
	x := splitmix64(addr<<32 ^ uint64(ver))
	for i := 0; i+8 <= len(buf); i += 8 {
		x = splitmix64(x)
		for j := 0; j < 8; j++ {
			buf[i+j] = byte(x >> (8 * j))
		}
	}
}

// stripe is the address range [lo,hi) that worker w of n owns: it is the
// only writer there, so every read it makes has one expected value.
func stripe(blocks uint64, w, n int) (lo, hi uint64) {
	return blocks * uint64(w) / uint64(n), blocks * uint64(w+1) / uint64(n)
}

// hotSet picks k distinct addresses, balanced across the shards so the
// seed does not decide how the hot traffic splits between them.
func hotSet(seed, blocks uint64, k int) []uint64 {
	r := newPRNG(seed, 0x407)
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		a := r.next() % blocks
		a = a - a%numShards + uint64(len(out)%numShards)
		if a >= blocks || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}

// schedule is one seeded Poisson arrival process: due offsets in
// nanoseconds from the phase start, for every arrival due before dur.
func schedule(seed uint64, rate float64, dur time.Duration) []int64 {
	r := newPRNG(seed, 0x5c4ed)
	out := make([]int64, 0, int(rate*dur.Seconds()*1.05)+16)
	t := 0.0
	limit := float64(dur.Nanoseconds())
	for {
		t += -math.Log(1-r.float()) / rate * 1e9
		if t >= limit {
			return out
		}
		out = append(out, int64(t))
	}
}

// cutSchedule cuts a schedule into n windows of length d: each window's
// due offsets count from the window's own start.
func cutSchedule(sched []int64, d time.Duration, n int) [][]int64 {
	out := make([][]int64, n)
	for _, t := range sched {
		if i := t / d.Nanoseconds(); i < int64(n) {
			out[i] = append(out[i], t-i*d.Nanoseconds())
		}
	}
	return out
}
