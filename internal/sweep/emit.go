package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// jsonGrid is the serialized grid header.
type jsonGrid struct {
	Schemes   []string `json:"schemes"`
	Workloads []string `json:"workloads"`
	Channels  []int    `json:"channels"`
	Seeds     int      `json:"seeds"`
	RootSeed  uint64   `json:"root_seed"`
	Accesses  int      `json:"accesses"`
	Levels    int      `json:"levels"`
}

// jsonCell is one serialized cell result.
type jsonCell struct {
	Scheme    string      `json:"scheme"`
	Workload  string      `json:"workload"`
	Channels  int         `json:"channels"`
	SeedIndex int         `json:"seed_index"`
	Seed      uint64      `json:"seed"`
	Result    *sim.Result `json:"result,omitempty"`
	Error     string      `json:"error,omitempty"`
	Panic     string      `json:"panic,omitempty"`
	Skipped   bool        `json:"skipped,omitempty"`
	WallNS    int64       `json:"wall_ns"`
}

// jsonResults is the full serialized sweep.
type jsonResults struct {
	Grid       jsonGrid   `json:"grid"`
	Workers    int        `json:"workers"`
	WallNS     int64      `json:"wall_ns"`
	CellTimeNS int64      `json:"cell_time_ns"`
	Speedup    float64    `json:"speedup"`
	Cells      []jsonCell `json:"cells"`
}

// WriteJSON emits the sweep as indented JSON. Cell order is the
// deterministic Grid.Cells order; wall-clock fields are the only
// nondeterministic content.
func WriteJSON(w io.Writer, r *Results) error {
	g := r.Grid.withDefaults()
	out := jsonResults{
		Grid: jsonGrid{
			Channels: g.Channels, Seeds: g.Seeds, RootSeed: g.RootSeed,
			Accesses: g.Accesses, Levels: g.Levels,
		},
		Workers:    r.Workers,
		WallNS:     r.Wall.Nanoseconds(),
		CellTimeNS: r.CellTime.Nanoseconds(),
		Speedup:    r.Speedup(),
	}
	for _, s := range g.Schemes {
		out.Grid.Schemes = append(out.Grid.Schemes, s.String())
	}
	for _, wl := range g.Workloads {
		out.Grid.Workloads = append(out.Grid.Workloads, wl.Name)
	}
	for _, c := range r.Cells {
		jc := jsonCell{
			Scheme:    c.Cell.Scheme.String(),
			Workload:  c.Cell.Workload.Name,
			Channels:  c.Cell.Channels,
			SeedIndex: c.Cell.SeedIndex,
			Seed:      c.Cell.Seed,
			Skipped:   c.Skipped,
			WallNS:    c.Wall.Nanoseconds(),
		}
		if c.Err != nil {
			jc.Error = c.Err.Error()
			jc.Panic = c.Panic
		} else if !c.Skipped {
			res := c.Result
			jc.Result = &res
		}
		out.Cells = append(out.Cells, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// csvHeader lists the per-cell CSV columns.
var csvHeader = []string{
	"scheme", "workload", "channels", "seed_index", "seed",
	"cycles", "instrs", "accesses", "reads", "writes",
	"bytes_read", "bytes_written", "energy_pj", "dirty_entries",
	"chain_blocks", "pending_peak", "wear_imbalance",
	"latency_mean", "latency_p50", "latency_p99", "latency_max",
	"wall_ns", "error",
}

// WriteCSV emits one row per cell, in deterministic grid order.
func WriteCSV(w io.Writer, r *Results) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, c := range r.Cells {
		errMsg := ""
		switch {
		case c.Err != nil:
			errMsg = c.Err.Error()
		case c.Skipped:
			errMsg = "skipped"
		}
		res := c.Result
		row := []string{
			c.Cell.Scheme.String(), c.Cell.Workload.Name,
			strconv.Itoa(c.Cell.Channels), strconv.Itoa(c.Cell.SeedIndex), u(c.Cell.Seed),
			u(res.Cycles), u(res.Instrs), u(res.Accesses), u(res.Reads), u(res.Writes),
			u(res.BytesRead), u(res.BytesWritten), u(res.EnergyPJ), u(res.DirtyEntries),
			u(res.ChainBlocks), strconv.Itoa(res.PendingPeak),
			strconv.FormatFloat(res.WearImbalance, 'f', 4, 64),
			strconv.FormatFloat(res.LatencyMean, 'f', 2, 64),
			u(res.LatencyP50), u(res.LatencyP99), u(res.LatencyMax),
			strconv.FormatInt(c.Wall.Nanoseconds(), 10), errMsg,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SummaryTable renders one row per (scheme, channels): cell counts,
// geomean cycles per access, NVM traffic per access, and — when the grid
// contains SchemeBaseline — the geomean slowdown versus Baseline on the
// same (workload, channels, seed), i.e. the Fig. 5-style normalization.
func SummaryTable(r *Results) *stats.Table {
	g := r.Grid.withDefaults()
	tab := stats.NewTable("Sweep summary (geomean across workloads and seeds)",
		"Scheme", "Ch", "Cells", "Errors", "Cycles/access", "Reads/access", "Writes/access", "vs Baseline")

	type key struct {
		scheme    config.Scheme
		workload  string
		channels  int
		seedIndex int
	}
	byKey := make(map[key]sim.Result, len(r.Cells))
	for _, c := range r.Cells {
		if c.Err != nil || c.Skipped {
			continue
		}
		byKey[key{c.Cell.Scheme, c.Cell.Workload.Name, c.Cell.Channels, c.Cell.SeedIndex}] = c.Result
	}
	hasBaseline := false
	for _, s := range g.Schemes {
		if s == config.SchemeBaseline {
			hasBaseline = true
		}
	}
	for _, s := range g.Schemes {
		for _, ch := range g.Channels {
			var cells, errs int
			var cpa, rpa, wpa, slow []float64
			for _, c := range r.Cells {
				if c.Cell.Scheme != s || c.Cell.Channels != ch {
					continue
				}
				cells++
				if c.Err != nil || c.Skipped {
					errs++
					continue
				}
				res := c.Result
				if res.Accesses > 0 {
					cpa = append(cpa, float64(res.Cycles)/float64(res.Accesses))
					rpa = append(rpa, float64(res.Reads)/float64(res.Accesses))
					wpa = append(wpa, float64(res.Writes)/float64(res.Accesses))
				}
				if hasBaseline {
					base, ok := byKey[key{config.SchemeBaseline, c.Cell.Workload.Name, ch, c.Cell.SeedIndex}]
					if ok && base.Cycles > 0 {
						slow = append(slow, res.Slowdown(base))
					}
				}
			}
			vsBase := "-"
			if len(slow) > 0 {
				vsBase = fmt.Sprintf("%.3f", stats.GeoMean(slow))
			}
			tab.AddRow(s.String(), strconv.Itoa(ch),
				strconv.Itoa(cells), strconv.Itoa(errs),
				fmt.Sprintf("%.0f", stats.GeoMean(cpa)),
				fmt.Sprintf("%.1f", stats.GeoMean(rpa)),
				fmt.Sprintf("%.1f", stats.GeoMean(wpa)),
				vsBase)
		}
	}
	return tab
}
