package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Config scopes the checks. The zero value is not useful; start from
// DefaultConfig. Tests point the scopes at fixture packages.
type Config struct {
	// DeterminismScope lists import-path prefixes where wall-clock
	// reads and map-order iteration are forbidden (the packages whose
	// output feeds results, traces and exports).
	DeterminismScope []string
	// RandScope lists import-path prefixes where importing math/rand is
	// forbidden (these must use internal/workload's deterministic RNG).
	RandScope []string
	// CtxScope lists import-path prefixes where detaching from the
	// request context (context.Background/TODO flowing into module
	// calls) is forbidden — the serving/execution request paths.
	CtxScope []string
	// EpochScope lists import-path prefixes whose synchronization edges
	// must publish a recorder epoch before releasing waiters.
	EpochScope []string
	// TaintScope lists import-path prefixes where wall-clock-derived
	// values must not reach cache keys, request identities, or cached
	// bytes.
	TaintScope []string
	// TaintResultScope lists import-path prefixes (a subset of
	// TaintScope) where, additionally, exported functions must not
	// return wall-clock-derived values.
	TaintResultScope []string
}

// DefaultConfig scopes determinism to the result-producing packages.
func DefaultConfig() Config {
	return Config{
		DeterminismScope: []string{
			"splash2/internal/apps",
			"splash2/internal/memsys",
			"splash2/internal/core",
		},
		RandScope: []string{
			"splash2/internal/apps",
			"splash2/internal/memsys",
			"splash2/internal/core",
			"splash2/internal/workload",
		},
		CtxScope: []string{
			"splash2/internal/serve",
			"splash2/internal/runner",
			"splash2/internal/core",
		},
		EpochScope: []string{
			"splash2/internal/mach",
		},
		TaintScope: []string{
			"splash2/internal/runner",
			"splash2/internal/serve",
			"splash2/internal/core",
		},
		TaintResultScope: []string{
			"splash2/internal/core",
		},
	}
}

// DefaultChecks returns every check with the default scopes.
func DefaultChecks() []*Check { return ChecksWith(DefaultConfig()) }

// ChecksWith builds the check set against a custom scope configuration.
func ChecksWith(cfg Config) []*Check {
	return []*Check{
		{Name: "accounting", Doc: "Peek/Init/Raw on mach arrays bypass the reference stream; allowed only in init/verify code", Run: runAccounting},
		{Name: "procflow", Doc: "*mach.Proc must not be stored in globals/structs or captured across goroutine spawns", Run: runProcflow},
		{Name: "determinism", Doc: "no wall-clock reads, global math/rand, or map-order iteration in result-producing packages", Run: cfg.runDeterminism},
		{Name: "faultpoints", Doc: "fault injection labels must be literals from the job:/cache.get:/cache.put:/trace.read[.footer|.block:]/lease.acquire:/journal.append/sample.estimate: taxonomy", Run: runFaultpoints},
		{Name: "tracecapture", Doc: "memsys entry points that take references (Recorder.RecordBatch/RecordResetAt, Feed.Batch) are reserved for internal/mach's batched capture path", Run: runTracecapture},
		{Name: "locks", Doc: "flow-sensitive lockset analysis over mach.Lock: unpaired Release, double Acquire, and locks held across barrier-like rendezvous", Run: runLocks},
		{Name: "ctxflow", Doc: "request paths must thread the caller's context.Context; context.Background/TODO on any path detaches cancellation, deadlines and fault scoping", Run: cfg.runCtxflow},
		{Name: "durability", Doc: "error results of journal/lease/cache/rename/Close-on-writable-file operations must be checked on every path", Run: runDurability},
		{Name: "epochs", Doc: "every sync edge in internal/mach must publish a recorder epoch before releasing waiters", Run: cfg.runEpochs},
		{Name: "timetaint", Doc: "wall-clock-derived values must not flow into cache keys, request identities, cached bytes, or exported results", Run: cfg.runTimetaint},
	}
}

// machPkgSuffix identifies the simulated-machine package by path.
const machPkgSuffix = "internal/mach"

func isMachPackage(p *types.Package) bool {
	return p != nil && strings.HasSuffix(p.Path(), machPkgSuffix)
}

// memsysPkgSuffix identifies the memory-system package by path.
const memsysPkgSuffix = "internal/memsys"

func isMemsysPackage(p *types.Package) bool {
	return p != nil && strings.HasSuffix(p.Path(), memsysPkgSuffix)
}

func hasAnyPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// accounting

// accountingMethods are the mach array escape hatches that touch Go
// values without issuing simulated references.
var accountingMethods = map[string]bool{"Peek": true, "Init": true, "Raw": true}

// accountingArrays are the receiver types the escape hatches live on.
var accountingArrays = map[string]bool{"F64Array": true, "IntArray": true, "C128Array": true}

// accountingExemptWords mark init/verify function names: input
// construction and result verification legitimately run outside the
// measured reference stream. A function whose (lowercased) name
// contains one of these words may use the escape hatches.
var accountingExemptWords = []string{
	"init", "new", "gen", "build", "setup", "make", "load",
	"verify", "check", "validate", "residual",
}

func accountingExemptFunc(name string) bool {
	l := strings.ToLower(name)
	for _, w := range accountingExemptWords {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// runAccounting flags Peek/Init/Raw selections on mach arrays outside
// init/verify functions: those accesses never reach the reference
// stream, so every one in measured code silently corrupts the
// characterization. Main packages (input assembly, output printing) and
// the mach package itself are exempt.
func runAccounting(pass *Pass) {
	if isMachPackage(pass.Pkg.Types) || pass.Pkg.Types.Name() == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ranges := namedFuncRanges(f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil {
				return true
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok || !accountingMethods[fn.Name()] || !isMachPackage(fn.Pkg()) {
				return true
			}
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || !accountingArrays[named.Obj().Name()] {
				return true
			}
			encl := enclosingFuncName(ranges, sel.Sel.Pos())
			if accountingExemptFunc(encl) {
				return true
			}
			where := "at package scope"
			if encl != "" {
				where = "in " + encl
			}
			pass.Reportf(sel.Sel.Pos(),
				"%s.%s bypasses the reference stream %s; use Get/Set through a *mach.Proc, or rename/annotate if this is init or verify code",
				named.Obj().Name(), fn.Name(), where)
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// procflow

// isProcType reports whether t is *mach.Proc (or mach.Proc itself).
func isProcType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Proc" && isMachPackage(named.Obj().Pkg())
}

// containsProcType unwraps composites: a []*mach.Proc slice or a
// map[int]*mach.Proc stored globally is just as much an ownership leak.
func containsProcType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return isProcType(t) || containsProcType(u.Elem())
	case *types.Slice:
		return containsProcType(u.Elem())
	case *types.Array:
		return containsProcType(u.Elem())
	case *types.Map:
		return containsProcType(u.Key()) || containsProcType(u.Elem())
	case *types.Chan:
		return containsProcType(u.Elem())
	default:
		return isProcType(t)
	}
}

// runProcflow enforces processor ownership: a *mach.Proc is the
// identity under which references are accounted, so it must flow down
// the call stack of the goroutine that runs that processor — never
// through globals, struct fields, or closures spawned on other
// goroutines. The mach package itself (which creates and runs procs) is
// exempt.
func runProcflow(pass *Pass) {
	if isMachPackage(pass.Pkg.Types) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Struct fields holding procs.
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := info.Types[field.Type]
				if ok && containsProcType(tv.Type) {
					pass.Reportf(field.Type.Pos(),
						"struct field stores *mach.Proc; accesses must be attributed to the issuing processor — pass the proc down the call stack instead")
				}
			}
			return true
		})
		// Package-level variables holding procs.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := info.Defs[name]
					if obj != nil && containsProcType(obj.Type()) {
						pass.Reportf(name.Pos(),
							"package-level variable %s stores *mach.Proc; procs are goroutine-owned and must not be global", name.Name)
					}
				}
			}
		}
		// Procs captured by goroutine-spawned closures.
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj, ok := info.Uses[id].(*types.Var)
				if !ok || !isProcType(obj.Type()) {
					return true
				}
				// Free variable: declared outside the literal.
				if obj.Pos() < lit.Pos() || obj.Pos() >= lit.End() {
					pass.Reportf(id.Pos(),
						"%s (*mach.Proc) captured by a go-spawned closure; the new goroutine would issue references under another processor's identity — pass it as an argument only if the spawned goroutine IS that processor", id.Name)
				}
				return true
			})
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// determinism

// clockFuncs are the time package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// runDeterminism enforces rerun-identical behaviour in the packages
// whose output feeds results, traces and exports: replay equivalence
// and the content-addressed result cache both assume byte-identical
// reruns, so a wall-clock read, a global math/rand draw, or a map-order
// iteration in these packages is a correctness bug, not a style issue.
func (cfg Config) runDeterminism(pass *Pass) {
	path := pass.Pkg.Types.Path()
	inScope := hasAnyPrefix(path, cfg.DeterminismScope)
	inRandScope := hasAnyPrefix(path, cfg.RandScope)
	if !inScope && !inRandScope {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if inRandScope {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(imp.Path.Pos(),
						"import of %s; workloads must use the deterministic internal/workload RNG", p)
				}
			}
		}
		if !inScope {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := info.Uses[n.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && clockFuncs[fn.Name()] {
					pass.Reportf(n.Sel.Pos(),
						"time.%s reads the wall clock; results and traces must be byte-identical across reruns", fn.Name())
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[n.X]
				if ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Range,
							"map iteration order is nondeterministic; iterate sorted keys (or annotate if order provably cannot reach results)")
					}
				}
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// tracecapture

// captureMethods are the memsys entry points that take references, by
// receiver type: recording and live simulation must flow through
// internal/mach's batched per-processor buffers (Proc.Read/Write), which
// stamp events with synchronization epochs and flush them while the
// processor holds the logical-time baton. A direct call from application
// or driver code would produce events outside any epoch order, breaking
// the byte-determinism of recordings and the one-flusher-at-a-time
// contract that lets the feed and the recorder run without locks.
var captureMethods = map[string]map[string]bool{
	"Recorder": {"RecordBatch": true, "RecordResetAt": true},
	"Feed":     {"Batch": true},
}

// runTracecapture flags selections of the per-reference capture methods
// outside internal/mach (where the batched flush path lives) and
// internal/memsys itself (replay and tests drive their own systems).
func runTracecapture(pass *Pass) {
	if isMachPackage(pass.Pkg.Types) || isMemsysPackage(pass.Pkg.Types) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil {
				return true
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok || !isMemsysPackage(fn.Pkg()) {
				return true
			}
			recv := s.Recv()
			if p, okp := recv.(*types.Pointer); okp {
				recv = p.Elem()
			}
			named, okn := recv.(*types.Named)
			if !okn {
				return true
			}
			methods := captureMethods[named.Obj().Name()]
			if methods == nil || !methods[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"%s.%s bypasses the batched per-processor capture path; issue references through *mach.Proc Read/Write so they are epoch-stamped and batched (annotate only deliberate tooling escapes)",
				named.Obj().Name(), fn.Name())
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// faultpoints

// faultLabelArg maps injector methods to the index of their label
// argument.
var faultLabelArg = map[string]int{"Do": 1, "Data": 0, "Reader": 0}

// faultTaxonomy is the documented injection-point namespace (see
// internal/fault's package doc and the -fault CLI syntax).
var faultTaxonomy = []string{
	"job:", "cache.get:", "cache.put:",
	"trace.read", "trace.read.footer", "trace.read.block:",
	"lease.acquire:", "journal.append", "sample.estimate:",
}

// validFaultLabel reports whether a label (or its known literal prefix)
// belongs to the taxonomy.
func validFaultLabel(prefix string, complete bool) bool {
	for _, t := range faultTaxonomy {
		if strings.HasPrefix(prefix, t) {
			return true
		}
		// An incomplete prefix like "trace." may still extend to a
		// taxonomy item; only a complete value can be rejected for
		// being a proper prefix of one.
		if !complete && strings.HasPrefix(t, prefix) {
			return true
		}
	}
	return false
}

// runFaultpoints checks that every fault-injection site label has a
// literal prefix from the documented taxonomy, so chaos rules written
// against the documented names always match and a typo cannot silently
// disarm an injection point. The fault package itself is exempt.
func runFaultpoints(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.Types.Path(), "internal/fault") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil {
				return true
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return true
			}
			argIdx, ok := faultLabelArg[fn.Name()]
			if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/fault") {
				return true
			}
			recv := s.Recv()
			if p, okp := recv.(*types.Pointer); okp {
				recv = p.Elem()
			}
			if named, okn := recv.(*types.Named); !okn || named.Obj().Name() != "Injector" {
				return true
			}
			if argIdx >= len(call.Args) {
				return true
			}
			arg := call.Args[argIdx]
			prefix, complete, ok := literalPrefix(info, f, arg, 0)
			if !ok {
				pass.Reportf(arg.Pos(),
					"fault point label is not resolvable to a literal; labels must start with one of %s so chaos rules can target them",
					strings.Join(faultTaxonomy, ", "))
				return true
			}
			if !validFaultLabel(prefix, complete) {
				pass.Reportf(arg.Pos(),
					"fault point label %q is outside the documented taxonomy (%s)",
					prefix, strings.Join(faultTaxonomy, ", "))
			}
			return true
		})
	}
}

// literalPrefix resolves the statically known leading string of an
// expression: a string literal or constant yields its full value
// (complete=true); lit+expr yields the literal part (complete=false); a
// local variable with exactly one assignment resolves through that
// assignment. ok=false means nothing is statically known.
func literalPrefix(info *types.Info, f *ast.File, e ast.Expr, depth int) (prefix string, complete bool, ok bool) {
	if depth > 8 {
		return "", false, false
	}
	if tv, found := info.Types[e]; found && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true, true
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return literalPrefix(info, f, e.X, depth+1)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			p, _, ok := literalPrefix(info, f, e.X, depth+1)
			return p, false, ok
		}
	case *ast.Ident:
		obj, okv := info.Defs[e].(*types.Var)
		if !okv {
			obj, okv = info.Uses[e].(*types.Var)
		}
		if !okv || obj == nil {
			return "", false, false
		}
		if src := singleAssignment(info, f, obj); src != nil {
			return literalPrefix(info, f, src, depth+1)
		}
	}
	return "", false, false
}

// singleAssignment returns the one expression ever assigned to obj
// within the file, or nil when there are zero or several (then the
// value is not statically known).
func singleAssignment(info *types.Info, f *ast.File, obj *types.Var) ast.Expr {
	var src ast.Expr
	count := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if info.Defs[id] == obj || info.Uses[id] == obj {
					count++
					if len(n.Rhs) == len(n.Lhs) {
						src = n.Rhs[i]
					} else {
						src = nil // multi-value assignment: give up
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.Defs[name] == obj {
					count++
					if i < len(n.Values) {
						src = n.Values[i]
					}
				}
			}
		}
		return true
	})
	if count != 1 {
		return nil
	}
	return src
}
