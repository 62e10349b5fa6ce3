// Package archtest holds the repository's design rules as tests over the
// syntax of its non-test Go files. Each rule is stated positively, over
// imports, identifiers, string literals, struct tags, assignments and call
// sites, and a failure names the rule's subsystem and the file:line that
// breaks it. Comments are never parsed, so a comment can name anything.
//
// The document rules (docs_test.go) hold the repository's documents to byte
// ceilings and their quoted test selectors and cited Go paths to the
// checkout.
//
// To add a rule, add a table row, or a test beside these when no table fits.
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
	"sync"
	"testing"
)

const module = "github.com/auditgames/sag"

// root is the checkout: this package sits two directories below it.
const root = "../.."

// srcFile is one parsed non-test Go file of the checkout.
type srcFile struct {
	path string // slash-separated, relative to the checkout
	ast  *ast.File
}

var (
	parseOnce sync.Once
	fset      = token.NewFileSet()
	files     []srcFile
	parseErr  error
)

// walkGo calls visit with the slash path, relative to the checkout, and
// the file path of every .go file of the checkout: the root module,
// examples/, and benchmark/ (its own module, read as a caller only), but not
// benchmark/out/, testdata/ or dot-directories.
func walkGo(visit func(rel, path string) error) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		return visit(rel, p)
	})
}

// checkout parses every non-test .go file walkGo visits, once.
func checkout(t *testing.T) []srcFile {
	t.Helper()
	parseOnce.Do(func() {
		parseErr = walkGo(func(rel, p string) error {
			if strings.HasSuffix(rel, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, srcFile{path: rel, ast: f})
			return nil
		})
	})
	if parseErr != nil {
		t.Fatalf("parsing the checkout: %v", parseErr)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files under %s", root)
	}
	return files
}

// under reports whether path lies in one of dirs (recursively).
func under(path string, dirs ...string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(path, d+"/") {
			return true
		}
	}
	return false
}

func (f srcFile) at(n ast.Node) string {
	return f.path + ":" + strconv.Itoa(fset.Position(n.Pos()).Line)
}

// importName is the name f refers to the package at path by, or "".
func (f srcFile) importName(path string) string {
	for _, s := range f.ast.Imports {
		if p, _ := strconv.Unquote(s.Path.Value); p == path {
			if s.Name != nil {
				return s.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// imports returns f's import specs whose path is path.
func (f srcFile) imports(path string) []*ast.ImportSpec {
	var out []*ast.ImportSpec
	for _, s := range f.ast.Imports {
		if p, _ := strconv.Unquote(s.Path.Value); p == path {
			out = append(out, s)
		}
	}
	return out
}

// funcName names a declared function as "F", "T.M" or "(*T).M".
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	typ := d.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := "?"
	if id, ok := typ.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return "(*" + name + ")." + d.Name.Name
	}
	return name + "." + d.Name.Name
}

// inspectFuncs walks f, passing each node with the name of the top-level
// function declaration it sits in ("" outside any).
func (f srcFile) inspectFuncs(visit func(fn string, n ast.Node)) {
	for _, decl := range f.ast.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = funcName(d)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if n != nil {
				visit(fn, n)
			}
			return true
		})
	}
}

// selectorOf reports whether e is pkg.sel for the package f imports as path.
func (f srcFile) selectorOf(e ast.Expr, path string, sels ...string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	if !ok || x.Name != f.importName(path) {
		return false
	}
	for _, name := range sels {
		if s.Sel.Name == name {
			return true
		}
	}
	return false
}

// words splits a string literal's value into runs of [A-Za-z0-9_], the
// units a metric or flag name is made of.
func words(lit *ast.BasicLit) []string {
	if lit.Kind != token.STRING {
		return nil
	}
	v, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil
	}
	return strings.FieldsFunc(v, func(r rune) bool {
		return !(r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z')
	})
}

// named reports, under subsystem, every identifier or string-literal word in
// files that match accepts; why says what is wrong with naming it.
func named(t *testing.T, subsystem, why string, files []srcFile, match func(name string) bool) {
	t.Helper()
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if match(x.Name) {
					t.Errorf("%s: %s: %s %s", subsystem, f.at(x), x.Name, why)
				}
			case *ast.BasicLit:
				for _, w := range words(x) {
					if match(w) {
						t.Errorf("%s: %s: %s (in %s) %s", subsystem, f.at(x), w, x.Value, why)
					}
				}
			}
			return true
		})
	}
}

// oneOf matches exactly the given names.
func oneOf(names ...string) func(string) bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return func(name string) bool { return set[name] }
}

// isNamed reports whether e is the identifier name or a selector x.name.
func isNamed(e ast.Expr, name string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == name
	case *ast.SelectorExpr:
		return x.Sel.Name == name
	}
	return false
}

// filter returns the files keep accepts.
func filter(files []srcFile, keep func(path string) bool) []srcFile {
	var out []srcFile
	for _, f := range files {
		if keep(f.path) {
			out = append(out, f)
		}
	}
	return out
}

// deletedNames are names whose mechanism was deleted, not defaulted off.
// One row per subsystem; a row without dirs covers the whole checkout but
// benchmark/.
var deletedNames = []struct {
	subsystem string
	dirs      []string
	names     []string
}{
	// the decision deadline, admission's second clock, its token bucket and
	// drain-rate estimator, three server knobs and the sagload tool
	{"serving/admission", nil, []string{"DecisionDeadline", "MaxWait", "TenantInflight", "ReasonDeadline", "Burst", "ReasonRate", "DrainRate", "drainWindow", "DefaultTenant", "MaxBodyBytes", "overloadCanShed", "runOverload", "selfServer", "MetricHTTPTenantRequestsTotal"}},
	// the append path's snapshot bookkeeping, the compactor's kick and idle ordering
	{"retention", nil, []string{"Kick", "kickDebounce", "LastAppend", "lastAppend", "ErrBusy", "noteAppend", "walRecords"}},
	// the Logf hooks
	{"logging", nil, []string{"Logf", "EnsureTenant"}},
	// the eviction path
	{"eviction", nil, []string{"OnEvict", "evictTenant", "RemoveTenant", "snapshotTenantLocked", "SnapshotAll", "MetricEvictionsTotal", "Forget"}},
	// the promote-time journal install, the standby's replay path, lazy
	// restore, the replica/sim knobs
	{"replication/journal", nil, []string{"lockedJournal", "recoverTenantLocal", "openTenantJournal", "durableTenantIDs", "tenantOnDisk", "JitterSeed", "BackoffBase", "BackoffCap", "MetricGroupSeconds", "MetricGroupAlertsPerSecond", "MetricGroupsTotal", "applyReplicated", "reseedTenant", "HeaderApplyFrom"}},
	// the estimator-state seam, the snapshot's kept rates and last
	// equilibrium, replay's per-record re-ask, the snapshot's JSON writer
	{"recovery", nil, []string{"MarshalState", "UnmarshalState", "stateMarshaler", "stateUnmarshaler", "LastRates", "SSEState", "LastSSE", "requery", "tenantSnapshot"}},
	// the server's flagged-set lock, counter atomics, record state machine,
	// snapshot assembly and field copy, and its per-tenant service counters
	{"tenant state", nil, []string{"flaggedMu", "countAccess", "isFlagged", "applyRecord", "exportTenant", "restoreSnapshot", "ApplyDecision", "InitialBudget", "tenantMetrics", "newTenantMetrics"}},
	// the tenant lifecycle lock with its lock-wait metric
	{"lifecycle lock", nil, []string{"lockLifecycle", "unlockLifecycle", "lockSide", "readSide", "writeSide", "noLock", "MetricHTTPLockWaitSeconds", "sag_http_lock_wait_seconds"}},
	// the per-tenant estimator knob: one estimator serves every tenant
	// (sim.Config.NewEstimator stays; the ablations choose between two)
	{"estimator", []string{"internal/server", "cmd/sagserver"}, []string{"NewEstimator"}},
}

func TestDeletedNamesStayDeleted(t *testing.T) {
	all := checkout(t)
	for _, row := range deletedNames {
		scope := filter(all, func(p string) bool {
			return !under(p, "benchmark") && (row.dirs == nil || under(p, row.dirs...))
		})
		named(t, row.subsystem, "is a deleted name, named again", scope, oneOf(row.names...))
	}
}

// Admission's token bucket is gone: no flag is called rate or burst, and the
// overload rehearsal is sagdrill -mode overload, not cmd/sagload.
func TestNoRateFlags(t *testing.T) {
	for _, f := range filter(checkout(t), func(p string) bool { return !under(p, "benchmark") }) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && len(c.Args) > 0 {
				if lit, ok := c.Args[0].(*ast.BasicLit); ok && f.selectorOf(c.Fun, "flag", "Float64", "Int", "Int64", "Uint", "Uint64", "Duration", "String", "Bool") {
					if v, _ := strconv.Unquote(lit.Value); v == "rate" || v == "burst" {
						t.Errorf("serving/admission: %s: flag -%s is defined again", f.at(c), v)
					}
				}
			}
			return true
		})
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "sagload")); err == nil {
		t.Errorf("serving/admission: cmd/sagload exists (the overload rehearsal is sagdrill -mode overload)")
	}
}

// internal/ logs only through log/slog.
func TestInternalLogsThroughSlog(t *testing.T) {
	for _, f := range filter(checkout(t), func(p string) bool { return under(p, "internal") }) {
		for _, s := range f.imports("log") {
			t.Errorf("logging: %s: imports log; internal/ logs only through log/slog", f.at(s))
		}
	}
}

// The engine's budget lock is a tenant's one lock: the server keeps no
// reader/writer lock of its own.
func TestServerDeclaresNoRWMutex(t *testing.T) {
	for _, f := range filter(checkout(t), func(p string) bool { return under(p, "internal/server") }) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok && f.selectorOf(s, "sync", "RWMutex") {
				t.Errorf("lifecycle lock: %s: internal/server names sync.RWMutex", f.at(s))
			}
			return true
		})
	}
}

// deadlineSites are the only functions of internal/server that make a
// deadline context, one call each: a request arms a timer only to wait.
var deadlineSites = []string{
	"internal/server/deadline.go (*requestDeadline).Done",
	"internal/server/follow.go (*followController).discoverOnce",
	"internal/server/lifecycle.go Run",
}

func TestOneDeadlineOnTheServingPath(t *testing.T) {
	want := map[string]int{}
	for _, s := range deadlineSites {
		want[s] = 1
	}
	got := map[string]int{}
	server := filter(checkout(t), func(p string) bool { return under(p, "internal/server") })
	for _, f := range server {
		f.inspectFuncs(func(fn string, n ast.Node) {
			c, ok := n.(*ast.CallExpr)
			if !ok || !f.selectorOf(c.Fun, "context", "WithTimeout", "WithDeadline", "WithTimeoutCause", "WithDeadlineCause") {
				return
			}
			site := f.path + " " + fn
			got[site]++
			if got[site] > want[site] {
				t.Errorf("serving/deadline: %s: a deadline context is made in %s; only %s make one, once each", f.at(c), fn, strings.Join(deadlineSites, ", "))
			}
		})
	}
	for _, s := range deadlineSites {
		if got[s] == 0 {
			path, fn, _ := strings.Cut(s, " ")
			at := funcAt(filter(server, func(p string) bool { return p == path }), fn, path)
			t.Errorf("serving/deadline: %s: %s makes no deadline context any more; remove it from deadlineSites", at, fn)
		}
	}
}

// Decisions run under the tenant's budget lock, so the serving packages
// never reach the simplex: LP (2) and LP (3) are closed forms there.
func TestNoSimplexOnTheServingPath(t *testing.T) {
	serving := filter(checkout(t), func(p string) bool { return under(p, "internal/core", "internal/server", "cmd/sagserver") })
	for _, f := range serving {
		for _, s := range f.imports(module + "/internal/lp") {
			t.Errorf("serving/simplex: %s: a serving package imports internal/lp", f.at(s))
		}
	}
	named(t, "serving/simplex", "is the simplex, named by a serving package", serving, func(name string) bool {
		return strings.Contains(name, "SolveLP") // SolveLP, SolveLPCtx, ...
	})
}

// lpImporters are the non-test importers of internal/lp outside examples/,
// benchmark/ and internal/lp itself: the simplex is a test oracle, and these
// are the two files the benchmark module pins. Remove entries, never add.
var lpImporters = []string{
	"internal/game/stats.go",          // SolveStats.Simplex <- benchmark/shadow.go
	"internal/signaling/signaling.go", // SolveLP <- benchmark/layers.go, and sag.SolveLP is public API
}

func TestSimplexIsATestOracle(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range lpImporters {
		allowed[p] = true
	}
	seen := map[string]bool{}
	for _, f := range filter(checkout(t), func(p string) bool {
		return !under(p, "examples", "benchmark", "internal/lp")
	}) {
		for _, s := range f.imports(module + "/internal/lp") {
			seen[f.path] = true
			if !allowed[f.path] {
				t.Errorf("simplex oracle: %s: imports internal/lp; its non-test importers are %s (remove entries, never add)", f.at(s), strings.Join(lpImporters, ", "))
			}
		}
	}
	for _, p := range lpImporters {
		if !seen[p] {
			t.Errorf("simplex oracle: %s no longer imports internal/lp; remove it from lpImporters", p)
		}
	}
}

// testSeams are exported funcs under internal/ that only tests name. The
// list only shrinks. Unwrap is called by net/http through an interface.
//
// The rule is a name-level ratchet, not a proof: benchmark/ and examples/
// count as callers, and a seam whose name something else also carries
// (faultinject.New/Point.Counts, Engine.Decisions/RNGDraws) passes
// unlisted.
var testSeams = []string{"SetJournalFault", "Violation", "SatisfiesTheorem3", "RunRetry", "RetryIsDominated", "Unwrap"}

// The library is what production reaches: every exported func under
// internal/ is named by some non-test code other than its own declaration.
func TestExportedFuncsHaveNonTestCallers(t *testing.T) {
	all := checkout(t)
	uses := map[string]bool{}
	type decl struct {
		name, at string
	}
	var decls []decl
	for _, f := range all {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
				if under(f.path, "internal") && fd.Name.IsExported() {
					decls = append(decls, decl{fd.Name.Name, f.at(fd)})
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name] = true
			}
			return true
		})
	}
	seam := map[string]bool{}
	for _, s := range testSeams {
		seam[s] = true
	}
	declared := map[string]bool{}
	for _, d := range decls {
		switch {
		case seam[d.name] && uses[d.name]:
			t.Errorf("library surface: %s: seam %s is named by non-test code now; remove it from testSeams", d.at, d.name)
		case !seam[d.name] && !uses[d.name]:
			t.Errorf("library surface: %s: exported %s is named only by tests (delete it, or move it beside the tests)", d.at, d.name)
		}
		declared[d.name] = true
	}
	for _, s := range testSeams {
		if !declared[s] {
			t.Errorf("library surface: seam %s is no longer declared under internal/; remove it from testSeams", s)
		}
	}
}

// A snapshot's bytes have one door, internal/wal: internal/core declares no
// JSON tag and the server's durable.go imports no JSON codec.
func TestOneDoorToASnapshotsBytes(t *testing.T) {
	for _, f := range checkout(t) {
		if under(f.path, "internal/core") {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(v, `json:"`) {
						t.Errorf("snapshot codec: %s: internal/core declares a JSON tag %s", f.at(lit), lit.Value)
					}
				}
				return true
			})
		}
		if f.path == "internal/server/durable.go" {
			for _, s := range f.imports("encoding/json") {
				t.Errorf("snapshot codec: %s: durable.go imports encoding/json", f.at(s))
			}
		}
	}
}

// site is where a rule's pattern matched: its file:line and the function
// declaration it sits in.
type site struct{ at, fn string }

// assignSites returns every assignment in files whose left side is a
// selector .field and, when rhs is non-empty, whose right side is a call
// of the function rhs.
func assignSites(files []srcFile, field, rhs string) []site {
	var sites []site
	for _, f := range files {
		f.inspectFuncs(func(fn string, n ast.Node) {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			for i, l := range a.Lhs {
				if s, ok := l.(*ast.SelectorExpr); !ok || s.Sel.Name != field {
					continue
				}
				if rhs != "" {
					if i >= len(a.Rhs) {
						continue
					}
					if c, ok := a.Rhs[i].(*ast.CallExpr); !ok || !isNamed(c.Fun, rhs) {
						continue
					}
				}
				sites = append(sites, site{f.at(a), fn})
			}
		})
	}
	return sites
}

// funcAt returns the file:line where files declare fn, or where, when none does.
func funcAt(files []srcFile, fn, where string) string {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == fn {
				return f.at(fd)
			}
		}
	}
	return where
}

// onlyIn checks that sites hold exactly one entry, in the function want
// declared somewhere in dir.
func onlyIn(t *testing.T, subsystem, what, want, dir string, files []srcFile, sites []site) {
	t.Helper()
	if len(sites) == 0 {
		t.Errorf("%s: %s: %s no longer %s; want it once, there", subsystem, funcAt(files, want, dir), want, what)
	}
	for _, s := range sites {
		if s.fn != want || len(sites) > 1 {
			t.Errorf("%s: %s: %s %s; want once, in %s", subsystem, s.at, s.fn, what, want)
		}
	}
}

// A tenant's journal is set once, before the router publishes the tenant.
func TestTenantJournalIsSetOnce(t *testing.T) {
	server := filter(checkout(t), func(p string) bool { return under(p, "internal/server") })
	onlyIn(t, "tenant journal", "assigns .journal", "(*Server).recoverTenant", "internal/server", server, assignSites(server, "journal", ""))
}

// The engine's cycle log is the journal's records, with one writer:
// e.decisions is appended only in applyLocked, and no record is converted
// back from another form.
func TestCycleLogHasOneWriter(t *testing.T) {
	core := filter(checkout(t), func(p string) bool { return under(p, "internal/core") })
	onlyIn(t, "cycle log", "appends to .decisions", "(*Engine).applyLocked", "internal/core", core, assignSites(core, "decisions", "append"))
	for _, f := range core {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Name.Name == "restore" {
					t.Errorf("cycle log: %s: internal/core declares restore, a second form of a record", f.at(x))
				}
			case *ast.CallExpr:
				if isNamed(x.Fun, "restore") {
					t.Errorf("cycle log: %s: internal/core converts a record back with restore()", f.at(x))
				}
			}
			return true
		})
	}
}

// Segment files and their directory are private to internal/wal: readers
// ask the Journal, not its directory.
func TestOneDoorIntoTheJournal(t *testing.T) {
	outside := filter(checkout(t), func(p string) bool { return !under(p, "benchmark", "internal/wal") })
	named(t, "journal door", "is the journal's directory, named outside internal/wal", outside,
		oneOf("OldestCursor", "LatestSnapshotCursor", "retainedSegments"))
	for _, f := range outside {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && len(c.Args) == 0 {
				if s, ok := c.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Dir" {
					t.Errorf("journal door: %s: a reader outside internal/wal asks for a directory with .Dir()", f.at(c))
				}
			}
			return true
		})
	}
}

// serviceCounters are the engine's counter fields that count what a record
// applied; they move after the journal wait, in one place.
var serviceCounters = []string{"accesses", "alerts", "warned", "quits", "decisions", "vacuous"}

// The engine counts what it applied: the service and decision counters are
// moved only by (*engineMetrics).count.
func TestServiceCountersMoveInOnePlace(t *testing.T) {
	counter := oneOf(serviceCounters...)
	for _, f := range filter(checkout(t), func(p string) bool { return under(p, "internal/core", "internal/server") }) {
		f.inspectFuncs(func(fn string, n ast.Node) {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			s, ok := c.Fun.(*ast.SelectorExpr)
			if !ok || (s.Sel.Name != "Inc" && s.Sel.Name != "Add") {
				return
			}
			if field, ok := s.X.(*ast.SelectorExpr); ok && counter(field.Sel.Name) && fn != "(*engineMetrics).count" {
				t.Errorf("service counters: %s: %s moves .%s; only (*engineMetrics).count does", f.at(c), fn, field.Sel.Name)
			}
		})
	}
}
