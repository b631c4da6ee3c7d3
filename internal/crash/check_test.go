package crash

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
)

// checkJSON runs Check on a small PS-family system under GOMAXPROCS
// procs and returns its report as JSON.
func checkJSON(t *testing.T, scheme config.Scheme, storeDir string, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, 64, config.Default().BlockBytes, 48, 7)
	rep, err := Check(oracle.Params{Scheme: scheme, NumBlocks: 64, Levels: 6, Seed: 7, StoreDir: storeDir}, ops, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%v: %v", scheme, rep.Violations)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckDeterministic: Check runs its trials on the worker pool, and
// its report must not depend on how many run at once: one proc and four
// give byte-identical JSON, and so does a run over durable stores (for
// PS-ORAM; they do not cover the recursive schemes).
func TestCheckDeterministic(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			one := checkJSON(t, scheme, "", 1)
			if four := checkJSON(t, scheme, "", 4); !bytes.Equal(one, four) {
				t.Fatalf("GOMAXPROCS 1 and 4 disagree:\n%s\n%s", one, four)
			}
			if core.StorageSupported(scheme) != nil {
				return // durable stores cover the flat schemes only
			}
			if stored := checkJSON(t, scheme, t.TempDir(), 4); !bytes.Equal(one, stored) {
				t.Fatalf("in memory and over stores disagree:\n%s\n%s", one, stored)
			}
		})
	}
}

// TestCheckRefusesAStore: a rerun on the directory an earlier Check left
// its stores in is refused before any op runs, naming the directory.
func TestCheckRefusesAStore(t *testing.T) {
	dir := t.TempDir()
	checkJSON(t, config.SchemePSORAM, dir, 0)
	ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, 64, config.Default().BlockBytes, 48, 7)
	_, err := Check(oracle.Params{Scheme: config.SchemePSORAM, NumBlocks: 64, Levels: 6, Seed: 7, StoreDir: dir}, ops, CheckOptions{})
	if want := filepath.Join(dir, "probe"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("rerun = %v, want an error naming %s", err, want)
	}
}
