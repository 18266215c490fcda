// Command rules checks the written rules of ROADMAP.md's design notes that
// types alone can decide, over the module's non-test Go:
//
//   - exported means reached (PR 31): every declaration under internal/ is
//     reached from a package outside it (the facade, cmd/cavenet, examples/,
//     bench), unless the allowlist below names it with a reason;
//   - map order (PR 9): a range over a map under internal/ carries
//     "// order-free: <reason>" on its line or the line above, and
//     accumulates no float;
//   - construction: a *rand.Rand is built only by internal/rng (PR 28); no
//     struct holds a map of *sim.Timer (PR 29); no netsim.Router
//     implementation touches NodeCounters (PR 26); every exported field of a
//     layer Config has a non-test assignment (PR 25).
//
// Usage, from the module root:
//
//	go run ./scripts/rules [dir]
//
// It prints one finding per line and exits 1 when there is any. It uses only
// the standard library: `go list` for the packages, go/types for the rest.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allow names the declarations and Config fields that stay although no
// production path reaches or assigns them, each with its reason: a test in
// another package needs them. An allowlisted declaration counts as reached,
// and so does what it uses. An entry that excuses nothing, because its
// identifier is gone or production now reaches it, is itself a finding.
var allow = map[string]string{
	"netsim.PortFunc":           "closure port handlers in the netsim, traffic, fault, aodv and dymo tests",
	"netsim.WorldConfig.Static": "fixed placements in the netsim, routing, traffic, fault, metrics, check and memstability tests",
	"phy.Config.NoPropDelay":    "mac/backoff_test.go varies it across the package boundary (PR 25)",
	"sim.Kernel.Pending":        "phy/channel_test.go:321 checks that a drained kernel holds nothing",
	"sim.Kernel.Processed":      "mac/backoff_test.go:301 and fault/fault_test.go:258 count fired events",
	"check.Ledger.Retired":      "memstability_test.go:292 checks that compaction retires entries",
}

// layers are the packages whose *Config structs follow PR 25's rule.
var layers = []string{"internal/phy", "internal/mac", "internal/netsim", "internal/routing/", "internal/traffic"}

func main() {
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	findings, err := check(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rules:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rules: %d findings\n", len(findings))
		os.Exit(1)
	}
}

type pkg struct {
	rel   string // import path relative to the module, "" for its root
	files []*ast.File
	types *types.Package
}

type checker struct {
	root     string
	fset     *token.FileSet
	info     *types.Info
	pkgs     []*pkg // dependency order
	module   map[*types.Package]bool
	findings []string
	excused  map[string]bool
}

// check type-checks the module at dir and returns its findings, sorted.
func check(dir string) ([]string, error) {
	c := &checker{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		module:  map[*types.Package]bool{},
		excused: map[string]bool{},
	}
	var err error
	if c.root, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	c.reachability()
	c.mapOrder()
	c.construction()
	for key, reason := range allow {
		if !c.excused[key] {
			c.findings = append(c.findings, fmt.Sprintf("allowlist: %s excuses nothing (%s)", key, reason))
		}
	}
	sort.Strings(c.findings)
	return c.findings, nil
}

// load type-checks the module's non-test files, package by package in
// dependency order, into one types.Info; the standard library is checked
// from source.
func (c *checker) load() error {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = c.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	std := importer.ForCompiler(c.fset, "source", nil)
	byPath := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir string
			GoFiles         []string
			Module          *struct{ Path string }
		}
		if err := dec.Decode(&lp); err != nil {
			return fmt.Errorf("go list: %w", err)
		}
		if lp.Module == nil {
			continue
		}
		p := &pkg{rel: strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/")}
		if strings.HasPrefix(p.rel, "scripts/") {
			continue
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if p.types, err = conf.Check(lp.ImportPath, c.fset, p.files, c.info); err != nil {
			return err
		}
		byPath[lp.ImportPath] = p.types
		c.module[p.types] = true
		c.pkgs = append(c.pkgs, p)
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (c *checker) report(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	if rel, err := filepath.Rel(c.root, p.Filename); err == nil {
		p.Filename = rel
	}
	c.findings = append(c.findings, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
}

// reportUnless reports a finding about key unless the allowlist excuses it.
func (c *checker) reportUnless(key string, pos token.Pos, format string, args ...any) {
	if _, ok := allow[key]; ok {
		c.excused[key] = true
		return
	}
	c.report(pos, format, args...)
}

func internal(p *pkg) bool { return strings.HasPrefix(p.rel, "internal/") }

// recvType is the type name a method is declared on.
func recvType(f *types.Func) *types.TypeName {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// name is how findings and the allowlist spell a declaration: pkg.Name or
// pkg.Type.Method.
func name(o types.Object) string {
	if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return o.Pkg().Name() + "." + recvType(f).Name() + "." + o.Name()
	}
	return o.Pkg().Name() + "." + o.Name()
}

// specObjs lists the names a type or value spec declares.
func (c *checker) specObjs(s ast.Spec) []types.Object {
	if ts, ok := s.(*ast.TypeSpec); ok {
		return []types.Object{c.info.Defs[ts.Name]}
	}
	var objs []types.Object
	for _, id := range s.(*ast.ValueSpec).Names {
		if o := c.info.Defs[id]; o != nil {
			objs = append(objs, o)
		}
	}
	return objs
}

// reachability reports every declaration under internal/ that no root
// reaches. Roots are the declarations of packages outside internal/, init
// and main, package-level vars with initialisers and, once production has
// been walked, the allowlist. A reached declaration
// reaches every module declaration it names; a reached type also reaches
// each of its methods whose name some interface in the module or the
// standard library declares, since a call through that interface can.
func (c *checker) reachability() {
	uses := map[types.Object][]types.Object{}
	var decls, roots []types.Object
	methods := map[*types.TypeName][]types.Object{}
	ifaceMethods := map[string]bool{}
	declare := func(n ast.Node, objs []types.Object, root bool) {
		var used []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.Ident:
				o := c.info.Uses[n]
				if f, ok := o.(*types.Func); ok {
					o = f.Origin()
				}
				if o != nil && c.module[o.Pkg()] && (o.Parent() == o.Pkg().Scope() || isMethod(o)) {
					used = append(used, o)
				}
			}
			return true
		})
		for _, o := range objs {
			uses[o] = used
		}
		decls = append(decls, objs...)
		if root {
			roots = append(roots, objs...)
		}
	}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := c.info.Defs[d.Name].(*types.Func)
					if d.Recv != nil {
						methods[recvType(fn)] = append(methods[recvType(fn)], fn)
					}
					declare(d, []types.Object{fn}, !internal(p) || d.Recv == nil && (fn.Name() == "init" || fn.Name() == "main"))
				case *ast.GenDecl:
					if d.Tok == token.IMPORT {
						continue
					}
					for _, s := range d.Specs {
						vs, isValue := s.(*ast.ValueSpec)
						declare(s, c.specObjs(s), !internal(p) || isValue && d.Tok == token.VAR && len(vs.Values) > 0)
					}
				}
			}
		}
	}
	for _, p := range c.stdPackages() {
		for _, n := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	walk := func(queue []types.Object) {
		for len(queue) > 0 {
			o := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if reached[o] {
				continue
			}
			reached[o] = true
			queue = append(queue, uses[o]...)
			if tn, ok := o.(*types.TypeName); ok {
				for _, m := range methods[tn] {
					if ifaceMethods[m.Name()] {
						queue = append(queue, m)
					}
				}
			}
		}
	}
	walk(roots)
	var allowed []types.Object
	for _, o := range decls {
		if _, ok := allow[name(o)]; ok {
			if reached[o] {
				c.report(o.Pos(), "%s is reached: drop its allowlist entry", name(o))
			}
			c.excused[name(o)] = true
			allowed = append(allowed, o)
		}
	}
	walk(allowed)
	for _, o := range decls {
		if !reached[o] && o.Name() != "_" && o.Name() != "init" && strings.HasPrefix(o.Pkg().Path(), "cavenet/internal/") {
			c.report(o.Pos(), "%s is reached only from tests", name(o))
		}
	}
}

func isMethod(o types.Object) bool {
	f, ok := o.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// stdPackages lists every standard-library package the module imports,
// directly or not.
func (c *checker) stdPackages() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !seen[q] && !c.module[q] {
				seen[q] = true
				out = append(out, q)
				walk(q)
			}
		}
	}
	for _, p := range c.pkgs {
		walk(p.types)
	}
	return out
}

// mapOrder reports each range over a map under internal/ that carries no
// "// order-free: <reason>" comment, and each float accumulated inside one:
// PR 9's rule is that a float sum over a map sorts its keys first.
func (c *checker) mapOrder() {
	for _, p := range c.pkgs {
		if !internal(p) {
			continue
		}
		for _, f := range p.files {
			marked := map[int]bool{}
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					if strings.HasPrefix(cm.Text, "// order-free: ") {
						marked[c.fset.Position(cm.Pos()).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, ok := c.info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
					return true
				}
				if line := c.fset.Position(rs.Pos()).Line; !marked[line] && !marked[line-1] {
					c.report(rs.Pos(), "range over a map without an // order-free: reason")
				}
				ast.Inspect(rs.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if ok && as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
						if b, ok := c.info.TypeOf(as.Lhs[0]).Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
							c.report(as.Pos(), "float accumulated inside a range over a map")
						}
					}
					return true
				})
				return true
			})
		}
	}
}

// construction checks the rules about how things are built.
func (c *checker) construction() {
	var netsim, sim *types.Package
	for _, p := range c.pkgs {
		switch p.rel {
		case "internal/netsim":
			netsim = p.types
		case "internal/sim":
			sim = p.types
		}
	}
	router := netsim.Scope().Lookup("Router").Type().Underlying().(*types.Interface)
	counters := netsim.Scope().Lookup("NodeCounters").Type()
	timer := sim.Scope().Lookup("Timer")
	assigned := map[*types.Var]bool{}
	markField := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := c.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				assigned[v] = true
			}
		}
	}
	routerMethods := map[*types.TypeName][]*ast.FuncDecl{}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						tn := recvType(c.info.Defs[n.Name].(*types.Func))
						routerMethods[tn] = append(routerMethods[tn], n)
					}
				case *ast.Ident:
					if fn, ok := c.info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && p.rel != "internal/rng" &&
						(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") && (fn.Name() == "New" || fn.Name() == "NewSource") {
						c.report(n.Pos(), "rand.%s outside internal/rng: build streams with rng.Source.Stream or rng.New (PR 28)", fn.Name())
					}
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						if m, ok := c.info.TypeOf(fld.Type).Underlying().(*types.Map); ok {
							if ptr, ok := m.Elem().(*types.Pointer); ok {
								if nt, ok := ptr.Elem().(*types.Named); ok && nt.Obj() == timer {
									c.report(fld.Pos(), "a map of *sim.Timer: a deadline per peer is a sim.TimerSet (PR 29)")
								}
							}
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						markField(&ast.SelectorExpr{Sel: id})
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						markField(l)
					}
				case *ast.IncDecStmt:
					markField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markField(n.X)
					}
				}
				return true
			})
		}
	}
	for _, p := range c.pkgs {
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(tn.Type(), router) || types.Implements(types.NewPointer(tn.Type()), router) {
				for _, fd := range routerMethods[tn] {
					ast.Inspect(fd, func(n ast.Node) bool {
						if e, ok := n.(ast.Expr); ok && isCounters(c.info.TypeOf(e), counters) {
							c.report(e.Pos(), "%s touches netsim.NodeCounters: a router never counts its own traffic (PR 26)", name(c.info.Defs[fd.Name]))
							return false
						}
						return true
					})
				}
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || !strings.HasSuffix(n, "Config") || !isLayer(p.rel) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() && !assigned[v] {
					key := name(tn) + "." + v.Name()
					c.reportUnless(key, v.Pos(), "%s has no non-test assignment: make it a constant (PR 25)", key)
				}
			}
		}
	}
}

func isCounters(t, counters types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t != nil && types.Identical(t, counters)
}

func isLayer(rel string) bool {
	for _, l := range layers {
		if strings.HasPrefix(rel, l) {
			return true
		}
	}
	return false
}
