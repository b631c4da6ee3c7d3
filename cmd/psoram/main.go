// Command psoram is the repository's one command-line tool: a
// subcommand per job, each with its own flag.FlagSet. Run `psoram` for
// the list and `psoram <subcommand> -h` for a subcommand's flags.
//
// A failed check exits 1 (an unexpected corruption in `crash` exits 2, as
// does an unknown subcommand or flag).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	psoram "repro"
)

type subcommand struct {
	name, synopsis string
	run            func(args []string)
}

// subcommands is filled in main: the table refers to functions that
// print it.
var subcommands []subcommand

// current is the running subcommand's name, for message prefixes.
var current string

func main() {
	subcommands = []subcommand{
		{"sim", "one (scheme, workload, channels) timing simulation", runSim},
		{"sweep", "whole evaluation grids on a worker pool", runSweep},
		{"experiments", "the paper's tables and figures as text", runExperiments},
		{"trace", "generate (gen) and inspect (info) workload trace files", runTrace},
		{"crash", "the crash-recoverability matrix (paper Table 5)", runCrash},
		{"oracle", "differential oracle and crash-linearizability torture", runOracle},
		{"serve", "the sharded pool behind a TCP listener", runServe},
		{"load", "open-loop load generator, in process or over TCP", runLoad},
	}
	if len(os.Args) >= 2 {
		for _, sc := range subcommands {
			if sc.name == os.Args[1] {
				current = sc.name
				sc.run(os.Args[2:])
				return
			}
		}
		fmt.Fprintf(os.Stderr, "psoram: unknown subcommand %q\n", os.Args[1])
	}
	listSubcommands()
	os.Exit(2)
}

func listSubcommands() {
	fmt.Fprintln(os.Stderr, "usage: psoram <subcommand> [flags]")
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", sc.name, sc.synopsis)
	}
}

// newFlagSet returns the running subcommand's flag set. A bad flag
// prints the subcommand's flags, then the subcommand list, and exits 2.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("psoram "+current, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: psoram %s [flags]\n", current)
		fs.PrintDefaults()
		listSubcommands()
	}
	return fs
}

// atExit runs before fatal exits (os.Exit skips deferred calls); the
// sweep's profile capture hangs its flush here.
var atExit = func() {}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "psoram %s: %v\n", current, err)
	atExit()
	os.Exit(1)
}

// Flags that more than one subcommand takes are declared below, once
// each, so a name means the same thing wherever it appears.

func schemeFlag(fs *flag.FlagSet) *string {
	return fs.String("scheme", "PS-ORAM", "persistence scheme (see \"psoram oracle -list\")")
}

func schemesFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("schemes", def, "comma-separated schemes, or \"all\" (see -list)")
}

func workloadFlag(fs *flag.FlagSet) *string {
	return fs.String("workload", "401.bzip2", "Table 4 workload name (see \"psoram sim -list\")")
}

func workloadsFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("workloads", def, "comma-separated workloads, or \"all\" (see -list)")
}

func accessesFlag(fs *flag.FlagSet, def int, of string) *int {
	return fs.Int("accesses", def, of)
}

func levelsFlag(fs *flag.FlagSet, usage string, def ...int) *intList {
	return intListFlag(fs, "levels", usage, def)
}

func channelsFlag(fs *flag.FlagSet) *intList {
	return intListFlag(fs, "channels", "memory channel counts (1, 2, 4 or 8)", []int{1})
}

func seedFlag(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "root seed; everything random derives from it")
}

func seedsFlag(fs *flag.FlagSet, of string) *int {
	return fs.Int("seeds", 1, of)
}

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
}

func blocksFlag(fs *flag.FlagSet, def uint64) *uint64 {
	return fs.Uint64("blocks", def, "logical blocks")
}

func jsonFlag(fs *flag.FlagSet) *string {
	return fs.String("json", "", "write the full report as JSON to this path (\"-\" = stdout)")
}

func listFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("list", false, "list schemes and workloads, then exit")
}

func reshardFlag(fs *flag.FlagSet, when string) *int {
	return fs.Int("reshard", 0, "re-stripe the pool to N shards "+when+" (0 = off)")
}

// intList is a comma-separated list of integers as a flag value.
type intList []int

func intListFlag(fs *flag.FlagSet, name, usage string, def []int) *intList {
	l := intList(def)
	fs.Var(&l, name, usage)
	return &l
}

func (l *intList) String() string {
	parts := make([]string, len(*l))
	for i, v := range *l {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (l *intList) Set(s string) error {
	*l = (*l)[:0]
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("%q is not an integer", part)
		}
		*l = append(*l, v)
	}
	return nil
}

// one is for the subcommands that take a single value of a list flag.
func (l intList) one(name string) int {
	if len(l) != 1 {
		fatal(fmt.Errorf("-%s takes one value here, got %v", name, []int(l)))
	}
	return l[0]
}

// printList is what -list prints: the schemes, then the named workloads.
func printList(title string, workloads []string) {
	fmt.Println("Schemes:")
	for _, s := range psoram.Schemes() {
		p := ""
		if s.Policy().Persistent() {
			p = "  (persistent: `psoram oracle -crash` applies)"
		}
		fmt.Printf("  %s%s\n", s, p)
	}
	fmt.Println(title)
	for _, w := range workloads {
		fmt.Printf("  %s\n", w)
	}
}

// emitTo runs write against the file at path, or stdout for "-".
func emitTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func emitJSON(path string, v any) error {
	return emitTo(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// summaryOut keeps stdout machine-parseable: a table moves to stderr
// when an emitter writes to stdout.
func summaryOut(paths ...string) io.Writer {
	for _, p := range paths {
		if p == "-" {
			return os.Stderr
		}
	}
	return os.Stdout
}
