package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

// header is the machine stamp printed with every result, so two results
// are comparable or visibly not.
type header struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	Kernel     string            `json:"kernel"`
	StoreRoot  string            `json:"store_root,omitempty"` // durable workloads only
	StoreFS    string            `json:"store_fs,omitempty"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	Options    map[string]string `json:"options"`
}

// newHeader stamps a run on a built stack. The options are the ones the
// workload names and what the built pool reports of itself; every other
// pool and server option is at its psoram.NewPool / netserve default,
// which this package does not know and does not restate.
func newHeader(cfg runConfig, sys *system) header {
	w := cfg.w
	o := map[string]string{
		"scheme":        sys.pool.Scheme().String(),
		"shards":        strconv.Itoa(sys.pool.Shards()),
		"blocks":        strconv.FormatUint(sys.pool.NumBlocks(), 10),
		"block_bytes":   strconv.Itoa(sys.pool.BlockBytes()),
		"levels":        strconv.Itoa(w.Levels),
		"transport":     "in-process serve.Pool",
		"client_groups": strconv.Itoa(clientGroups),
		"workers":       strconv.Itoa(w.Workers),
		"paced_rate":    fmt.Sprintf("%.0f/s", w.Rate),
		"slo":           w.SLO.String(),
		"others":        "psoram.NewPool and netserve defaults",
	}
	if w.Durable {
		o["storage"] = "internal/storage/filestore"
		o["group_commit"] = fmt.Sprintf("K=%d delay=%v", w.GroupOps, w.GroupDelay)
	}
	if w.TCP {
		o["transport"] = "netserve over loopback TCP, one connection per client group"
	}
	h := header{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Workload:   w.Name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		Options:    o,
	}
	if w.Durable {
		h.StoreRoot, h.StoreFS = cfg.storeRoot, fsType(cfg.storeRoot)
	}
	return h
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	s, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(s)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (or its nearest existing
// parent).
func fsType(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		var st syscall.Statfs_t
		if err := syscall.Statfs(d, &st); err == nil {
			switch uint32(st.Type) {
			case 0x01021994:
				return "tmpfs"
			case 0xEF53:
				return "ext2/3/4"
			case 0x58465342:
				return "xfs"
			case 0x9123683E:
				return "btrfs"
			case 0x794c7630:
				return "overlayfs"
			default:
				return fmt.Sprintf("0x%x", uint32(st.Type))
			}
		}
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "Key:  N kB" field of /proc/self/status.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == key {
			n, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return n
		}
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// procIO reads /proc/self/io: bytes handed to write calls and the number
// of write calls.
type procIO struct{ wchar, syscw float64 }

func readProcIO() procIO {
	var io procIO
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return io
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), ":")
		n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
		switch k {
		case "wchar":
			io.wchar = n
		case "syscw":
			io.syscw = n
		}
	}
	return io
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n)
}
