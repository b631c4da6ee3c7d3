package config_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// TestSchemePredicates pins the scheme matrix of DESIGN.md §3: every
// Policy field of the nine schemes and every predicate derived from
// them, core's included.
func TestSchemePredicates(t *testing.T) {
	const (
		sram, pcm, stt      = config.MediumSRAM, config.MediumPCM, config.MediumSTTRAM
		none, dirty, path   = config.EntriesNone, config.EntriesDirty, config.EntriesPath
		noDomain, wpq, eADR = config.DomainNone, config.DomainWPQ, config.DomainEADR
	)
	all, noStep5 := []int{2, 3, 4, 5, 6}, []int{2, 3, 4, 6}
	cases := []struct {
		s                               config.Scheme
		name                            string
		want                            config.Policy
		persistent, wpqAtomic, storable bool
		steps                           []int
	}{
		{config.SchemeNonORAM, "NonORAM", config.Policy{false, false, sram, none, noDomain}, false, false, false, all},
		{config.SchemeBaseline, "Baseline", config.Policy{true, false, sram, none, noDomain}, false, false, true, all},
		{config.SchemeFullNVM, "FullNVM", config.Policy{true, false, pcm, none, noDomain}, false, false, true, all},
		{config.SchemeFullNVMSTT, "FullNVM(STT)", config.Policy{true, false, stt, none, noDomain}, false, false, true, all},
		{config.SchemeNaivePSORAM, "Naive-PS-ORAM", config.Policy{true, false, sram, path, wpq}, true, true, true, all},
		{config.SchemePSORAM, "PS-ORAM", config.Policy{true, false, sram, dirty, wpq}, true, true, true, all},
		{config.SchemeRcrBaseline, "Rcr-Baseline", config.Policy{true, true, sram, none, noDomain}, false, false, false, all},
		{config.SchemeRcrPSORAM, "Rcr-PS-ORAM", config.Policy{true, true, sram, dirty, wpq}, true, true, false, all},
		{config.SchemeEADRORAM, "eADR-ORAM", config.Policy{true, false, sram, none, eADR}, true, false, true, noStep5},
	}
	var order []config.Scheme
	for _, c := range cases {
		order = append(order, c.s)
		p := c.s.Policy()
		if c.s.String() != c.name {
			t.Errorf("%v: name %q, want %q", c.s, c.s.String(), c.name)
		}
		if p != c.want {
			t.Errorf("%v: policy %+v, want %+v", c.s, p, c.want)
		}
		if p.Persistent() != c.persistent || p.WPQAtomic() != c.wpqAtomic ||
			p.Storable() != c.storable {
			t.Errorf("%v: persistent %v, WPQ-atomic %v, storable %v; want %v %v %v", c.s,
				p.Persistent(), p.WPQAtomic(), p.Storable(),
				c.persistent, c.wpqAtomic, c.storable)
		}
		if ok := core.StorageSupported(c.s) == nil; ok != c.storable {
			t.Errorf("%v: core.StorageSupported accepts = %v, want %v", c.s, ok, c.storable)
		}
		if got := core.DeclaredStepsFor(c.s); !slices.Equal(got, c.steps) {
			t.Errorf("%v: declared steps %v, want %v", c.s, got, c.steps)
		}
	}
	if got := config.Schemes(); !slices.Equal(got, order) {
		t.Errorf("Schemes() = %v, want %v", got, order)
	}
	if p := config.Scheme(len(cases)).Policy(); p != (config.Policy{}) {
		t.Errorf("an unknown scheme's policy is %+v, want the zero Policy", p)
	}
}

// TestNoSchemeNameTests holds every layer to reading a scheme's Policy:
// no non-test Go file compares against a scheme constant (==, != or a
// case), except the package that defines the matrix and the
// presentation code that orders and normalises tables by name.
func TestNoSchemeNameTests(t *testing.T) {
	root := filepath.Join("..", "..")
	allowed := map[string]bool{
		"internal/config":        true,
		"internal/report":        true,
		"internal/sweep/emit.go": true, // the Baseline normalisation
	}
	consts := constNames(t, filepath.Join(root, "internal/config/config.go"), func(name string, _ ast.Expr) bool {
		return strings.HasPrefix(name, "Scheme")
	})
	// psoram.go's aliases of the constants.
	aliases := constNames(t, filepath.Join(root, "psoram.go"), func(_ string, v ast.Expr) bool {
		sel, ok := v.(*ast.SelectorExpr)
		return ok && consts[sel.Sel.Name]
	})
	isScheme := func(e ast.Expr, pkg string) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && (x.Name == "config" && consts[e.Sel.Name] || x.Name == "psoram" && aliases[e.Sel.Name])
		case *ast.Ident:
			return pkg == "psoram" && aliases[e.Name]
		}
		return false
	}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if allowed[rel] || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || allowed[rel] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			var operands []ast.Expr
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					operands = []ast.Expr{n.X, n.Y}
				}
			case *ast.CaseClause:
				operands = n.List
			}
			for _, e := range operands {
				if isScheme(e, f.Name.Name) {
					t.Errorf("%s: tests a scheme by name; read its config.Policy instead", fset.Position(e.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(consts) != len(config.Schemes()) || len(aliases) != len(consts) || checked < 50 {
		t.Fatalf("guard found %d constants, %d aliases and %d files; the scan is broken", len(consts), len(aliases), checked)
	}
}

// constNames parses file and returns the names of the constants that
// keep accepts, given each one's value (nil for an iota continuation).
func constNames(t *testing.T, file string, keep func(name string, value ast.Expr) bool) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		g, ok := decl.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				var v ast.Expr
				if i < len(vs.Values) {
					v = vs.Values[i]
				}
				if keep(n.Name, v) {
					names[n.Name] = true
				}
			}
		}
	}
	return names
}
