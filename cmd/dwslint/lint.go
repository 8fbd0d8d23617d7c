// The determinism linter: go/ast + go/types checks for the hazards that
// would silently break the simulator's byte-identical -j 1 vs -j 8
// guarantee (see internal/report). Seven checks:
//
//   - wallclock:  time.Now / time.Since / time.Sleep / time.After in
//     simulation code. Simulated time is the engine's cycle counter;
//     wall-clock reads make results depend on host load, and wall-clock
//     waits stall the real machine instead of scheduling an engine event.
//   - rand:       use of math/rand's global source (rand.Intn, rand.Seed,
//     ...). Only an explicitly seeded *rand.Rand — the
//     rand.New(rand.NewSource(seed)) pattern — is reproducible.
//   - maprange:   ranging over a map where the body assigns to state
//     declared outside the loop. Go randomises map iteration order, so
//     such writes make results depend on it. The keys-collection idiom
//     (x = append(x, key) followed by a sort) is exempt.
//   - ptrmaprange: ranging over a pointer-keyed map (the
//     map[*program.Program]int shape). Pointer keys have no stable sort
//     key — addresses differ run to run — so even the collect-and-sort
//     idiom cannot make the order reproducible; such maps must be
//     replaced with insertion-ordered slices (see wpu.progBases).
//   - goroutine:  a go statement outside the approved executor files. All
//     simulator concurrency must flow through the report.Session worker
//     pool, whose merge order is deterministic, or the serve daemon's job
//     pool (internal/serve/pool.go), which only ever runs Session calls.
//   - exhaustiveswitch: a switch dispatching on one of the schema enums —
//     obs.EventKind (case expressions name Ev* enumerators) or the cycle
//     taxonomy (case expressions are CycleBucketLabels strings) — that
//     neither covers every enumerator nor carries a default clause. The
//     enumerator and label sets are extracted from the linted tree itself,
//     so adding an EventKind or a taxonomy bucket immediately flags every
//     switch that has not caught up (the schema-drift class the golden
//     exports otherwise catch only at test time).
//   - obsguard:   an observability emission (trace Emit/AddSample or a
//     histogram Record whose receiver chain goes through a trace) in a
//     hot-path package (internal/wpu, internal/mem) that is not inside an
//     `if x.trace != nil { ... }` body. The zero-cost-when-disabled
//     contract requires untraced runs to pay only the nil-test branch; an
//     unguarded emission would also nil-panic the default configuration.
//
// A finding can be suppressed with a trailing or preceding comment
// directive `//dwslint:ignore <reason>`; the reason is mandatory, and a
// directive that no longer suppresses any diagnostic is itself reported
// as stale.
//
// Typechecking uses a permissive importer that resolves every import to an
// empty package: under the module build we have no export data for
// dependencies, and the checks only need locally resolvable facts —
// package-qualified selectors (via types.Info.Uses) and the types of maps
// declared in the package under lint. Map values that cross package
// boundaries are invisible to the maprange check; the determinism-critical
// packages own their maps, so this is an accepted limitation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one linter diagnostic.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// ignoreDirective is the comment prefix that suppresses a finding on its
// own line or the line below.
const ignoreDirective = "dwslint:ignore"

// Linter runs the checks. Their scopes are the package-level lists below,
// which name the simulator tree's own files, packages and enums.
type Linter struct{}

// approvedGoroutineFiles are the files allowed to launch goroutines: the
// report executor's worker pool and the serve daemon's job pool. Everything
// else under ./internal must stay single-goroutine (per-System determinism
// depends on it).
var approvedGoroutineFiles = []string{"internal/report/runner.go", "internal/serve/pool.go"}

// exhaustiveEnumTypes and exhaustiveLabelArrays name the schema enums the
// exhaustiveswitch check guards: the iota enum obs.EventKind and the cycle
// taxonomy's label array.
var (
	exhaustiveEnumTypes   = []string{"EventKind"}
	exhaustiveLabelArrays = []string{"CycleBucketLabels"}
)

// obsGuardDirs are the directories whose obs emissions must be guarded by
// the enabled check: the simulator's hot paths.
var obsGuardDirs = []string{"internal/wpu", "internal/mem"}

// LintDirs lints every non-test Go file under the given roots and returns
// the findings sorted by position.
func (l *Linter) LintDirs(roots ...string) ([]Finding, error) {
	pkgDirs := map[string]bool{}
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				pkgDirs[filepath.Dir(path)] = true
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(pkgDirs))
	for dir := range pkgDirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	sort.Strings(files)
	enums, err := collectEnums(files)
	if err != nil {
		return nil, err
	}

	var all []Finding
	for _, dir := range dirs {
		fs, err := lintPackageDir(dir, enums)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}

// enumSets is the schema membership the exhaustiveswitch check compares
// switches against, extracted from the linted tree itself (so the check
// tracks the source of truth, not a copy of it).
type enumSets struct {
	// members maps an enum type name to its exported enumerators in
	// declaration order (the unexported count sentinel is excluded).
	members map[string][]string
	// labels maps a label-array name to its string elements in index order.
	labels map[string][]string
}

// collectEnums pre-parses every file once and extracts the enumerator and
// label sets of the guarded schema enums. A guarded enum defined in
// multiple packages (the fixture case) merges by name; the simulator tree
// defines each exactly once.
func collectEnums(files []string) (*enumSets, error) {
	typeTargets := map[string]bool{}
	for _, t := range exhaustiveEnumTypes {
		typeTargets[t] = true
	}
	arrTargets := map[string]bool{}
	for _, a := range exhaustiveLabelArrays {
		arrTargets[a] = true
	}
	es := &enumSets{members: map[string][]string{}, labels: map[string][]string{}}
	fset := token.NewFileSet()
	for _, path := range files {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("dwslint: %w", err)
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.CONST:
				// Track the current enum type through an iota block: a spec
				// with an explicit type sets it; an untyped, valueless spec
				// continues it; anything else (a new untyped value) ends it.
				cur := ""
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if vs.Type != nil {
						cur = ""
						if id, ok := vs.Type.(*ast.Ident); ok && typeTargets[id.Name] {
							cur = id.Name
						}
					} else if len(vs.Values) > 0 {
						cur = ""
					}
					if cur == "" {
						continue
					}
					for _, name := range vs.Names {
						if ast.IsExported(name.Name) {
							es.members[cur] = append(es.members[cur], name.Name)
						}
					}
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != 1 || !arrTargets[vs.Names[0].Name] || len(vs.Values) != 1 {
						continue
					}
					cl, ok := vs.Values[0].(*ast.CompositeLit)
					if !ok {
						continue
					}
					name := vs.Names[0].Name
					for _, elt := range cl.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							elt = kv.Value
						}
						if lit, ok := elt.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if s, err := strconv.Unquote(lit.Value); err == nil {
								es.labels[name] = append(es.labels[name], s)
							}
						}
					}
				}
			}
		}
	}
	return es, nil
}

func lintPackageDir(dir string, enums *enumSets) ([]Finding, error) {
	fset := token.NewFileSet()
	entries, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	// Group files by package name: a directory can hold package x and
	// package main (or x_test externals, already excluded).
	byPkg := map[string][]*ast.File{}
	for _, path := range entries {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("dwslint: %w", err)
		}
		byPkg[file.Name.Name] = append(byPkg[file.Name.Name], file)
	}
	pkgNames := make([]string, 0, len(byPkg))
	for name := range byPkg {
		pkgNames = append(pkgNames, name)
	}
	sort.Strings(pkgNames)

	var all []Finding
	for _, name := range pkgNames {
		files := byPkg[name]
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{
			Importer: &fakeImporter{pkgs: map[string]*types.Package{}},
			Error:    func(error) {}, // imports are fake: errors are expected
		}
		// Check fills info for everything it can resolve even when the
		// package has type errors; the returned error is ignored on purpose.
		conf.Check(dir, fset, files, info) //nolint:errcheck
		for _, file := range files {
			w := &walker{fset: fset, info: info, file: file, enums: enums}
			ast.Walk(w, file)
			all = append(all, w.applyIgnores()...)
		}
	}
	return all, nil
}

// fakeImporter resolves every import path to an empty, complete package.
// The default importer needs export data we do not have under the module
// build; the checks only rely on package-qualified identifier *names*.
type fakeImporter struct{ pkgs map[string]*types.Package }

func (f *fakeImporter) Import(path string) (*types.Package, error) {
	if p, ok := f.pkgs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	f.pkgs[path] = p
	return p, nil
}

// walker runs the checks over one file.
type walker struct {
	fset     *token.FileSet
	info     *types.Info
	file     *ast.File
	enums    *enumSets
	findings []Finding

	// obsGuards caches the body ranges of `if ...trace != nil` statements
	// in this file (computed lazily by insideTraceGuard).
	obsGuards     [][2]token.Pos
	obsGuardsOnce bool
}

func (w *walker) add(pos token.Pos, check, format string, args ...any) {
	w.findings = append(w.findings, Finding{
		Pos:   w.fset.Position(pos),
		Check: check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

func (w *walker) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		w.checkPkgSelector(n)
	case *ast.RangeStmt:
		w.checkMapRange(n)
	case *ast.GoStmt:
		w.checkGoroutine(n)
	case *ast.CallExpr:
		w.checkObsGuard(n)
	case *ast.SwitchStmt:
		w.checkExhaustiveSwitch(n)
	}
	return w
}

// checkExhaustiveSwitch flags a switch that dispatches on a guarded schema
// enum (any case expression names one of its enumerators, or is one of its
// label strings) but neither covers the full set nor carries a default.
// Detection is name-based like obsguard: the fake importer cannot type a
// cross-package tag expression, but the case expressions carry the
// enumerator names either way.
func (w *walker) checkExhaustiveSwitch(sw *ast.SwitchStmt) {
	if w.enums == nil {
		return
	}
	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // a default clause absorbs future enumerators
		}
		for _, e := range cc.List {
			switch v := e.(type) {
			case *ast.Ident:
				covered[v.Name] = true
			case *ast.SelectorExpr:
				covered[v.Sel.Name] = true
			case *ast.BasicLit:
				if v.Kind == token.STRING {
					if s, err := strconv.Unquote(v.Value); err == nil {
						covered[s] = true
					}
				}
			}
		}
	}
	report := func(kind, name string, set []string) {
		hit, missing := false, []string(nil)
		for _, m := range set {
			if covered[m] {
				hit = true
			} else {
				missing = append(missing, m)
			}
		}
		if hit && len(missing) > 0 {
			w.add(sw.Pos(), "exhaustiveswitch",
				"switch over %s %s misses %s: cover every enumerator or add a default clause (schema drift otherwise goes unnoticed until the golden exports fail)",
				name, kind, strings.Join(missing, ", "))
		}
	}
	for _, t := range exhaustiveEnumTypes {
		report("enumerators", t, w.enums.members[t])
	}
	for _, a := range exhaustiveLabelArrays {
		report("labels", a, w.enums.labels[a])
	}
}

// pkgPathOf resolves the import path when ident names an imported package,
// via the typechecker when possible and the file's import table otherwise.
func (w *walker) pkgPathOf(ident *ast.Ident) string {
	if obj, ok := w.info.Uses[ident]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a variable, field, etc. shadowing nothing
	}
	// Unresolved (type errors elsewhere): fall back to the import table.
	for _, imp := range w.file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return path
		}
	}
	return ""
}

// checkPkgSelector implements the wallclock and rand checks.
func (w *walker) checkPkgSelector(sel *ast.SelectorExpr) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch w.pkgPathOf(ident) {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since":
			w.add(sel.Pos(), "wallclock",
				"time.%s in simulation code: simulated time is the engine's cycle counter, wall-clock reads are nondeterministic", sel.Sel.Name)
		case "Sleep", "After":
			w.add(sel.Pos(), "wallclock",
				"time.%s in simulation code: simulated delays are engine events (Queue.At), wall-clock waits stall the real machine and are nondeterministic", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		switch sel.Sel.Name {
		case "New", "NewSource", "Source", "Rand":
			// The approved pattern: rand.New(rand.NewSource(seed)), plus
			// the type names needed to hold one.
		default:
			w.add(sel.Pos(), "rand",
				"rand.%s uses the global math/rand source: construct an explicitly seeded generator with rand.New(rand.NewSource(seed))", sel.Sel.Name)
		}
	}
}

// checkMapRange flags ranging over a map while assigning to state declared
// outside the loop body.
func (w *walker) checkMapRange(rs *ast.RangeStmt) {
	tv, ok := w.info.Types[rs.X]
	if !ok || tv.Type == nil {
		return // unresolved (crosses a fake import): out of scope
	}
	mp, isMap := tv.Type.Underlying().(*types.Map)
	if !isMap {
		return
	}
	// A pointer-keyed map is flagged at the range itself, whatever the body
	// does: addresses differ run to run, so no sort of the keys can make
	// the iteration order reproducible.
	if _, ptrKey := mp.Key().Underlying().(*types.Pointer); ptrKey {
		w.add(rs.Pos(), "ptrmaprange",
			"range over a pointer-keyed map: pointer keys have no run-stable sort key, so no iteration order over this map is reproducible (use an insertion-ordered slice instead)")
	}

	inBody := func(pos token.Pos) bool {
		return pos >= rs.Body.Pos() && pos <= rs.Body.End()
	}
	// declaredInside reports whether the base identifier of an lvalue is
	// the range key/value or declared within the loop body.
	declaredInside := func(e ast.Expr) bool {
		base := baseIdent(e)
		if base == nil {
			return false
		}
		if obj := w.info.Defs[base]; obj != nil {
			return true // the := definition itself
		}
		obj, ok := w.info.Uses[base]
		if !ok || obj == nil {
			return false
		}
		pos := obj.Pos()
		if kv, ok := rs.Key.(*ast.Ident); ok && obj.Pos() == kv.Pos() {
			return true
		}
		if vv, ok := rs.Value.(*ast.Ident); ok && obj.Pos() == vv.Pos() {
			return true
		}
		return inBody(pos)
	}
	rangeVarNames := map[string]bool{}
	if kv, ok := rs.Key.(*ast.Ident); ok {
		rangeVarNames[kv.Name] = true
	}
	if vv, ok := rs.Value.(*ast.Ident); ok {
		rangeVarNames[vv.Name] = true
	}
	// isKeyCollection recognises `x = append(x, k...)` where every appended
	// value is a range variable or literal — the sort-the-keys idiom, which
	// is order-independent once sorted.
	isKeyCollection := func(as *ast.AssignStmt) bool {
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) < 2 {
			return false
		}
		if first, ok := call.Args[0].(*ast.Ident); !ok || first.Name != lhs.Name {
			return false
		}
		for _, arg := range call.Args[1:] {
			switch a := arg.(type) {
			case *ast.Ident:
				if !rangeVarNames[a.Name] {
					return false
				}
			case *ast.BasicLit:
			default:
				return false
			}
		}
		return true
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if isKeyCollection(n) {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				if !declaredInside(lhs) {
					w.add(n.Pos(), "maprange",
						"assignment to state declared outside a map-range loop: map iteration order is randomised, so this write order is nondeterministic (collect and sort the keys first)")
					return true
				}
			}
		case *ast.IncDecStmt:
			if !declaredInside(n.X) {
				w.add(n.Pos(), "maprange",
					"increment of state declared outside a map-range loop: map iteration order is randomised (collect and sort the keys first)")
			}
		case *ast.SendStmt:
			w.add(n.Pos(), "maprange",
				"channel send inside a map-range loop: delivery order follows the randomised map iteration order")
		}
		return true
	})
}

// baseIdent unwraps an lvalue to its base identifier: a[i].b -> a.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// checkGoroutine flags go statements outside the approved executor files.
func (w *walker) checkGoroutine(g *ast.GoStmt) {
	file := filepath.ToSlash(w.fset.Position(g.Pos()).Filename)
	for _, ok := range approvedGoroutineFiles {
		if strings.HasSuffix(file, ok) {
			return
		}
	}
	w.add(g.Pos(), "goroutine",
		"goroutine launched outside the approved executor files (%s): simulator concurrency must flow through the report.Session worker pool",
		strings.Join(approvedGoroutineFiles, ", "))
}

// checkObsGuard flags observability emissions in the hot-path packages
// that are not inside an `if x.trace != nil { ... }` body. Detection is
// syntactic on purpose: the emission methods are recognised by name
// (Emit, AddSample, Record) with a receiver chain that passes through a
// trace or histogram field, so the check works without export data for
// the obs package.
func (w *walker) checkObsGuard(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Emit", "AddSample", "Record":
	default:
		return
	}
	if !chainMentionsTrace(sel.X) {
		return
	}
	file := filepath.ToSlash(w.fset.Position(call.Pos()).Filename)
	applies := false
	for _, d := range obsGuardDirs {
		if strings.Contains(file, d) {
			applies = true
			break
		}
	}
	if !applies {
		return
	}
	if w.insideTraceGuard(call.Pos()) {
		return
	}
	w.add(call.Pos(), "obsguard",
		"unguarded %s in a hot path: wrap the emission in its enabled check (if x.trace != nil { ... }) so untraced runs pay only the nil-test branch", sel.Sel.Name)
}

// chainMentionsTrace reports whether the selector chain rooted at e passes
// through a trace-ish name (trace, Trace, Hists).
func chainMentionsTrace(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return isTraceName(v.Name)
		case *ast.SelectorExpr:
			if isTraceName(v.Sel.Name) {
				return true
			}
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return false
		}
	}
}

func isTraceName(name string) bool {
	return name == "trace" || name == "Trace" || name == "Hists"
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// insideTraceGuard reports whether pos falls inside the body of an if
// statement whose condition tests a trace-ish chain against nil. The body
// ranges are collected once per file.
func (w *walker) insideTraceGuard(pos token.Pos) bool {
	if !w.obsGuardsOnce {
		w.obsGuardsOnce = true
		ast.Inspect(w.file, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			guards := false
			ast.Inspect(ifs.Cond, func(c ast.Node) bool {
				b, ok := c.(*ast.BinaryExpr)
				if !ok || b.Op != token.NEQ {
					return true
				}
				if (isNilIdent(b.Y) && chainMentionsTrace(b.X)) ||
					(isNilIdent(b.X) && chainMentionsTrace(b.Y)) {
					guards = true
				}
				return true
			})
			if guards {
				w.obsGuards = append(w.obsGuards, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
			}
			return true
		})
	}
	for _, g := range w.obsGuards {
		if pos >= g[0] && pos <= g[1] {
			return true
		}
	}
	return false
}

// applyIgnores drops findings suppressed by a `//dwslint:ignore reason`
// directive on the same line or the line above. Directives themselves are
// checked both ways: one lacking a reason is reported, and so is a
// reasoned one that suppresses nothing — a stale suppression would
// otherwise silently swallow the next diagnostic introduced nearby.
func (w *walker) applyIgnores() []Finding {
	type directive struct {
		pos  token.Pos
		line int
	}
	var directives []directive
	suppressed := map[int]bool{}
	for _, cg := range w.file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignoreDirective) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
			line := w.fset.Position(c.Pos()).Line
			if reason == "" {
				w.add(c.Pos(), "directive", "dwslint:ignore requires a reason")
				continue
			}
			directives = append(directives, directive{c.Pos(), line})
			suppressed[line] = true
			suppressed[line+1] = true
		}
	}
	used := map[int]bool{} // finding lines whose suppression fired
	kept := w.findings[:0]
	for _, f := range w.findings {
		if f.Check != "directive" && suppressed[f.Pos.Line] {
			used[f.Pos.Line] = true
			continue
		}
		kept = append(kept, f)
	}
	w.findings = kept
	for _, d := range directives {
		if !used[d.line] && !used[d.line+1] {
			w.add(d.pos, "directive", "dwslint:ignore suppresses no diagnostic: stale directive (remove it)")
		}
	}
	return w.findings
}
