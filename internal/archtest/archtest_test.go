package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rheem"
)

// source is one parsed non-test Go file of the module.
type source struct {
	path string // relative to the module root, slash-separated
	fset *token.FileSet
	file *ast.File
}

func (s source) at(n ast.Node) string {
	return s.path + ":" + strconv.Itoa(s.fset.Position(n.Pos()).Line)
}

// sources parses every non-test Go file under the module root's dirs (all
// of the module when none is given), skipping hidden directories and
// testdata.
func sources(t *testing.T, dirs ...string) []source {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	var out []source
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			out = append(out, source{path: filepath.ToSlash(rel), fset: fset, file: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no Go files under %v", dirs)
	}
	return out
}

// importName returns the name a file refers to an import path by: "" when it
// does not import it, "." for a dot import.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// refersTo reports whether n names pkg's exported name in a file that
// imports pkg as local.
func refersTo(n ast.Node, local, name string) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		x, ok := n.X.(*ast.Ident)
		return ok && local != "" && x.Name == local && n.Sel.Name == name
	case *ast.Ident:
		return local == "." && n.Name == name
	}
	return false
}

// One seam for simulated time: outside internal/simclock and bench/, no
// non-test file refers to time.Sleep. Every simulated latency is charged
// through a simclock.Clock; real waits use timers.
func TestOnlySimclockSleeps(t *testing.T) {
	for _, s := range sources(t) {
		if strings.HasPrefix(s.path, "internal/simclock/") || strings.HasPrefix(s.path, "bench/") {
			continue
		}
		local := importName(s.file, "time")
		ast.Inspect(s.file, func(n ast.Node) bool {
			if refersTo(n, local, "Sleep") {
				t.Errorf("%s: refers to time.Sleep: charge simulated latency through a simclock.Clock, wait for real events with a timer", s.at(n))
			}
			return true
		})
	}
}

// Prices are declared where operators and platforms are: no non-test file
// of the optimizer or the cost learner holds a string literal equal to the
// name of a bundled platform.
func TestOptimizerNamesNoPlatform(t *testing.T) {
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true, DFSDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range ctx.Registry.Drivers() {
		names[d.Name()] = true
	}
	if len(names) == 0 {
		t.Fatal("no bundled platform registered")
	}
	for _, s := range sources(t, "internal/optimizer", "internal/costlearn") {
		ast.Inspect(s.file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && names[v] {
					t.Errorf("%s: names the bundled platform %q: a driver declares its unit costs and its mappings their parameters", s.at(n), v)
				}
			}
			return true
		})
	}
}

// Movement is planned by the optimizer and only run by the executor: no
// non-test file of internal/executor names FindPath or FindTree.
func TestExecutorSearchesNoConversionGraph(t *testing.T) {
	for _, s := range sources(t, "internal/executor") {
		ast.Inspect(s.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "FindPath" || id.Name == "FindTree") {
				t.Errorf("%s: names %s: movement is planned by the optimizer and only run here", s.at(n), id.Name)
			}
			return true
		})
	}
}

// One declaration of a platform's simulated latency: inside internal/platform
// no non-test file but driverutil's charges one. None refers to
// simclock.Charge or calls a method named Charge: not (*simclock.Clock).Charge,
// though an engine holds its stage's clock for its barriers, and not
// (*driverutil.Boot).Charge, which driverutil.Execute calls once per stage. An
// engine charges through the methods of driverutil.Latency and
// driverutil.Boot, so what it is charged and what it is quoted come from one
// value.
func TestOnlyDriverutilChargesPlatformLatency(t *testing.T) {
	for _, s := range sources(t, "internal/platform") {
		if strings.HasPrefix(s.path, "internal/platform/driverutil/") {
			continue
		}
		local := importName(s.file, "rheem/internal/simclock")
		ast.Inspect(s.file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if refersTo(n, local, "Charge") || ok && sel.Sel.Name == "Charge" {
				t.Errorf("%s: charges simulated latency itself: charge a platform's latency through driverutil.Latency and driverutil.Boot", s.at(n))
			}
			return true
		})
	}
}

// Behaviour is chosen by options and flags, never by the environment: outside
// cmd/ and bench/, no non-test file refers to os.Getenv, os.LookupEnv or
// os.Environ. A command reads its flags and passes options down.
func TestOnlyCommandsReadTheEnvironment(t *testing.T) {
	for _, s := range sources(t) {
		if strings.HasPrefix(s.path, "cmd/") || strings.HasPrefix(s.path, "bench/") {
			continue
		}
		local := importName(s.file, "os")
		ast.Inspect(s.file, func(n ast.Node) bool {
			for _, name := range []string{"Getenv", "LookupEnv", "Environ"} {
				if refersTo(n, local, name) {
					t.Errorf("%s: refers to os.%s: make the setting an option that a command sets from a flag", s.at(n), name)
				}
			}
			return true
		})
	}
}

// One writer of the run record: outside tests and bench/, only
// (*executor.Executor).run writes a Record's Entries. Nothing else assigns
// to a field named Entries (the record's is the only one non-test code
// assigns), takes its address, or builds an executor.Record literal that
// sets it. Every other reader of what a stage did, the monitor, the profile,
// the cost learner and the progressive optimizer, reads that one list.
func TestOnlyExecutorRunWritesTheRunRecord(t *testing.T) {
	for _, s := range sources(t) {
		if strings.HasPrefix(s.path, "bench/") {
			continue
		}
		inExecutor := strings.HasPrefix(s.path, "internal/executor/")
		local := importName(s.file, "rheem/internal/executor")
		isRecord := func(typ ast.Expr) bool {
			id, ok := typ.(*ast.Ident)
			return ok && inExecutor && id.Name == "Record" || refersTo(typ, local, "Record")
		}
		for _, decl := range s.file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && inExecutor && fn.Name.Name == "run" && receiverIs(fn, "Executor") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var writes []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					writes = n.Lhs
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writes = []ast.Expr{n.X}
					}
				case *ast.CompositeLit:
					if isRecord(n.Type) && setsEntries(n) {
						t.Errorf("%s: builds an executor.Record with entries: only (*executor.Executor).run writes the run record", s.at(n))
					}
				}
				for _, w := range writes {
					if isEntries(w) {
						t.Errorf("%s: writes a run record's Entries: only (*executor.Executor).run writes the run record", s.at(w))
					}
				}
				return true
			})
		}
	}
}

// isEntries reports whether x is a field named Entries, or an element or a
// slice of one.
func isEntries(x ast.Expr) bool {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel.Name == "Entries"
		default:
			return false
		}
	}
}

// setsEntries reports whether a struct literal sets a field named Entries:
// by key, or by position.
func setsEntries(lit *ast.CompositeLit) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Entries" {
			return true
		}
	}
	return false
}

// receiverIs reports whether fn is a method of typ or *typ.
func receiverIs(fn *ast.FuncDecl, typ string) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == typ
}

// Import boundaries: which packages may know which. A source file's import
// list is the whole of what it may depend on, so each rule reads only that.
//   - internal/core, the model every layer shares, imports no platform,
//     executor or optimizer package;
//   - no engine under internal/platform imports another engine: engines
//     share code through driverutil, and platformtest is their test kit;
//   - the root package, the library API, imports no internal/cluster: the
//     fleet is a server concern;
//   - internal/rescache does not import internal/storage/dfs: cached results
//     live in memory, on this peer or on the fleet's remote tier.
func TestImportBoundaries(t *testing.T) {
	const internal = "rheem/internal/"
	for _, s := range sources(t) {
		pkgDir := s.path[:max(strings.LastIndex(s.path, "/"), 0)]
		engine, inPlatform := strings.CutPrefix(pkgDir, "internal/platform/")
		engine, _, _ = strings.Cut(engine, "/")
		for _, imp := range s.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			var broken string
			switch {
			case under(pkgDir, "internal/core") && under(path,
				internal+"platform", internal+"executor", internal+"optimizer"):
				broken = "internal/core imports no platform, executor or optimizer package"
			case inPlatform && isEngine(engine):
				other, ok := strings.CutPrefix(path, internal+"platform/")
				other, _, _ = strings.Cut(other, "/")
				if ok && isEngine(other) && other != engine {
					broken = "no engine imports another engine: share code through driverutil"
				}
			case pkgDir == "" && under(path, internal+"cluster"):
				broken = "the root package imports no internal/cluster"
			case under(pkgDir, "internal/rescache") && under(path, internal+"storage/dfs"):
				broken = "internal/rescache imports no internal/storage/dfs: cached results live in memory"
			}
			if broken != "" {
				t.Errorf("%s: imports %s: %s", s.at(imp), path, broken)
			}
		}
	}
}

// under reports whether the package path (or directory) is one of roots or
// below one.
func under(path string, roots ...string) bool {
	for _, p := range roots {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isEngine reports whether a directory directly under internal/platform holds
// an engine rather than the code the engines share.
func isEngine(dir string) bool {
	return dir != "" && dir != "driverutil" && dir != "platformtest"
}
