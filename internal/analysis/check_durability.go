package analysis

// The durability check: the error results of the operations crash
// safety rests on must be consulted on every path. PR 8's contract is
// "store-before-release" and "cache hits are the resume": an ignored
// error from an atomic rename, a writable-file Close, a Cache.Put, a
// journal close or a lease operation turns a recoverable failure into
// silent cache/journal corruption that only surfaces as a wrong resume
// much later. Unlike a syntactic errcheck, this one is flow-sensitive:
//
//   - it knows which *os.File variables are WRITABLE (assigned from
//     os.Create/os.CreateTemp, or os.OpenFile with a writing flag) —
//     Close on a read-only file cannot lose data and is not flagged;
//   - an error assigned to a variable may be checked later on every
//     path; only a path that reaches the function exit (or overwrites
//     the variable) without consulting it is reported;
//   - `defer f.Close()` on a writable file is reported unless the
//     function also has an explicit, non-deferred Close of the same
//     file whose error is handled (the close-twice idiom: checked
//     Close on the success path, deferred Close as cleanup).
//
// Monitored operations: os.Rename; Close on writable *os.File values;
// and the internal/runner durability surface (Cache.Put, Journal.Close,
// and any Release/Append-named method with an error result).

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// durFact is the flow fact: the set of writable-file variables and the
// set of pending (assigned but not yet consulted) monitored errors,
// each keyed by variable identity and carrying the position and
// description of the operation that produced it.
type durFact struct {
	wfiles  stringSet
	pending map[string]durPending
}

type durPending struct {
	pos  token.Pos
	desc string
}

func durEqual(a, b durFact) bool {
	if !a.wfiles.equal(b.wfiles) || len(a.pending) != len(b.pending) {
		return false
	}
	for k, v := range a.pending {
		if w, ok := b.pending[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func durJoin(a, b durFact) durFact {
	out := durFact{wfiles: a.wfiles.union(b.wfiles), pending: a.pending}
	for k, v := range b.pending {
		if w, ok := out.pending[k]; !ok || v.pos < w.pos {
			out = out.withPending(k, v)
		}
	}
	return out
}

func (f durFact) withPending(k string, v durPending) durFact {
	out := make(map[string]durPending, len(f.pending)+1)
	for k2, v2 := range f.pending {
		out[k2] = v2
	}
	out[k] = v
	return durFact{wfiles: f.wfiles, pending: out}
}

func (f durFact) withoutPending(k string) durFact {
	if _, ok := f.pending[k]; !ok {
		return f
	}
	out := make(map[string]durPending, len(f.pending))
	for k2, v2 := range f.pending {
		if k2 != k {
			out[k2] = v2
		}
	}
	return durFact{wfiles: f.wfiles, pending: out}
}

func objKey(obj types.Object) string {
	return obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// runnerMonitoredMethods are the internal/runner durability surface, by
// lowercased name; matched only when the callee has an error result.
var runnerMonitoredMethods = map[string]bool{
	"put": true, "close": true, "release": true, "append": true,
}

// monitoredCall classifies a call whose error result must be consulted.
// Close-on-*os.File is writability-dependent and resolved against the
// fact by the caller; for those, fileRecv is the receiver identity.
func monitoredCall(info *types.Info, call *ast.CallExpr) (desc string, fileRecv string, ok bool) {
	fn, sig := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || sig == nil {
		return "", "", false
	}
	// The callee must return an error (by convention the last result).
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return "", "", false
	}
	path := fn.Pkg().Path()
	switch {
	case path == "os" && fn.Name() == "Rename":
		return "os.Rename", "", true
	case fn.Name() == "Close" && sig.Recv() != nil && isOSFileType(sig.Recv().Type()):
		sel, okSel := call.Fun.(*ast.SelectorExpr)
		if !okSel {
			return "", "", false
		}
		id, okID := sel.X.(*ast.Ident)
		if !okID {
			return "", "", false
		}
		obj := info.Uses[id]
		if obj == nil {
			return "", "", false
		}
		return "Close of writable file " + id.Name, objKey(obj), true
	case strings.HasSuffix(path, "internal/runner") && runnerMonitoredMethods[strings.ToLower(fn.Name())]:
		recv := "runner"
		if sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, okp := t.(*types.Pointer); okp {
				t = p.Elem()
			}
			if named, okn := t.(*types.Named); okn {
				recv = named.Obj().Name()
			}
		}
		return recv + "." + fn.Name(), "", true
	}
	return "", "", false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isOSFileType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "File" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os"
}

// writableFileSource reports whether call opens a file for writing:
// os.Create, os.CreateTemp, or os.OpenFile with a flag expression that
// is (or may be) a writing mode. A non-constant flag counts as writable.
func writableFileSource(info *types.Info, call *ast.CallExpr) bool {
	fn, _ := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	switch fn.Name() {
	case "Create", "CreateTemp":
		return true
	case "OpenFile":
		if len(call.Args) < 2 {
			return false
		}
		tv, ok := info.Types[call.Args[1]]
		if !ok || tv.Value == nil {
			return true // dynamic flag: assume writable
		}
		v, okv := constant.Int64Val(constant.ToInt(tv.Value))
		if !okv {
			return true
		}
		// os.O_WRONLY=1, os.O_RDWR=2, os.O_APPEND/O_CREATE/O_TRUNC all
		// imply intent to write through this descriptor.
		const writeBits = 0x1 | 0x2 | 0x400 | 0x40 | 0x200
		return v&writeBits != 0
	}
	return false
}

// runDurability applies the analysis everywhere (crash-safety is not a
// per-package property: trace spills, cache writes and CLI tooling all
// rename and close files).
func runDurability(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, g := range pass.Pkg.FuncCFGs(f) {
			runDurabilityFunc(pass, info, g)
		}
	}
}

func runDurabilityFunc(pass *Pass, info *types.Info, g *CFG) {
	// Pre-scan: functions with no monitored calls and no file opens are
	// skipped without solving.
	interesting := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			inspectAtom(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if _, _, mon := monitoredCall(info, call); mon || writableFileSource(info, call) {
						interesting = true
					}
				}
				return !interesting
			})
		}
	}
	if !interesting {
		return
	}

	// Objects read anywhere in the function (assignment right-hand sides,
	// conditions, arguments — not assignment targets). The overwrite and
	// end-of-function diagnostics only fire for errors that are NEVER
	// consulted: the standard `if cerr := f.Close(); err == nil { err =
	// cerr }` idiom deliberately drops the close error when an earlier
	// error takes precedence, and the path-insensitive join cannot see
	// that the dropping paths are exactly the superseded ones.
	consumed := make(map[string]bool)
	var markReads func(n ast.Node)
	markReads = func(n ast.Node) {
		inspectAtom(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, r := range m.Rhs {
					if !blankDiscard(m, i, r) {
						markReads(r)
					}
				}
				return false
			case *ast.Ident:
				if obj := info.Uses[m]; obj != nil {
					consumed[objKey(obj)] = true
				}
			}
			return true
		})
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			markReads(n)
		}
	}

	// Receivers with an explicit (non-deferred) Close somewhere in the
	// function: their deferred Close is the cleanup half of the
	// close-twice idiom and is not reported.
	explicitClose := make(map[string]bool)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				continue
			}
			inspectAtom(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if _, fileRecv, mon := monitoredCall(info, call); mon && fileRecv != "" {
						explicitClose[fileRecv] = true
					}
				}
				return true
			})
		}
	}

	// step advances the fact across one atom; when report is non-nil the
	// walk also diagnoses (the solve pass runs with report == nil).
	step := func(n ast.Node, in durFact, report func(pos token.Pos, format string, args ...any)) durFact {
		out := in
		diag := func(pos token.Pos, format string, args ...any) {
			if report != nil {
				report(pos, format, args...)
			}
		}
		// isMonitored resolves writability for Close calls against the
		// current fact.
		isMonitored := func(call *ast.CallExpr) (string, bool) {
			desc, fileRecv, mon := monitoredCall(info, call)
			if !mon {
				return "", false
			}
			if fileRecv != "" && !out.wfiles[fileRecv] {
				return "", false // Close of a non-writable file
			}
			return desc, true
		}
		// clearUses drops pending entries whose variable is read in e.
		clearUses := func(e ast.Node) {
			if e == nil {
				return
			}
			inspectAtom(e, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						out = out.withoutPending(objKey(obj))
					}
				}
				return true
			})
		}

		switch n := n.(type) {
		case *ast.DeferStmt:
			if desc, mon := isMonitored(n.Call); mon {
				_, fileRecv, _ := monitoredCall(info, n.Call)
				if fileRecv != "" && explicitClose[fileRecv] {
					return out // cleanup half of the close-twice idiom
				}
				diag(n.Call.Pos(),
					"deferred %s discards its error; check an explicit Close/Put on the success path (or annotate a deliberate best-effort close)", desc)
			}
			clearUses(n.Call) // args evaluated now; reading err consults it
			return out

		case *ast.GoStmt:
			if desc, mon := isMonitored(n.Call); mon {
				diag(n.Call.Pos(), "%s spawned with go; its error is unobservable on every path", desc)
			}
			clearUses(n.Call)
			return out

		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if desc, mon := isMonitored(call); mon {
					diag(call.Pos(), "%s result discarded; this error must be checked on every path (crash consistency depends on it)", desc)
					clearUses(call)
					return out
				}
			}

		case *ast.AssignStmt:
			// Reads on the RHS consult pending errors — except `_ = err`,
			// which discards a value without consulting it. Then LHS
			// writes create or kill pendings.
			for i, r := range n.Rhs {
				if !blankDiscard(n, i, r) {
					clearUses(r)
				}
			}
			// Monitored call on the RHS: locate the error-result LHS.
			handled := make(map[int]string) // lhs index -> op desc
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					if desc, mon := isMonitored(call); mon {
						handled[len(n.Lhs)-1] = desc
					}
				}
			} else if len(n.Rhs) == len(n.Lhs) {
				for i, r := range n.Rhs {
					if call, ok := r.(*ast.CallExpr); ok {
						if desc, mon := isMonitored(call); mon {
							handled[i] = desc
						}
					}
				}
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				desc, isMon := handled[i]
				if id.Name == "_" {
					if isMon {
						diag(n.Rhs[min(i, len(n.Rhs)-1)].Pos(),
							"%s error assigned to _; this error must be checked on every path", desc)
					}
					continue
				}
				if obj == nil {
					continue
				}
				k := objKey(obj)
				if prev, pending := out.pending[k]; pending {
					if !consumed[k] {
						diag(prev.pos, "%s error is overwritten before being checked", prev.desc)
					}
					out = out.withoutPending(k)
				}
				if isMon && isErrorType(obj.Type()) {
					out = out.withPending(k, durPending{pos: n.Rhs[min(i, len(n.Rhs)-1)].Pos(), desc: desc})
				}
				// Track writable files through assignment.
				if isOSFileType(obj.Type()) {
					src := durAssignSource(n, i)
					if call, okc := src.(*ast.CallExpr); okc && writableFileSource(info, call) {
						out = durFact{wfiles: out.wfiles.with(k), pending: out.pending}
					} else if id2, ok2 := src.(*ast.Ident); ok2 {
						if o2 := info.Uses[id2]; o2 != nil && out.wfiles[objKey(o2)] {
							out = durFact{wfiles: out.wfiles.with(k), pending: out.pending}
						} else {
							out = durFact{wfiles: out.wfiles.without(k), pending: out.pending}
						}
					} else {
						out = durFact{wfiles: out.wfiles.without(k), pending: out.pending}
					}
				}
			}
			return out
		}

		// Any other atom: every identifier read consults pending errors
		// (conditions, returns, call arguments, range expressions, ...).
		clearUses(n)
		return out
	}

	facts := solve(g, durFact{wfiles: stringSet{}, pending: map[string]durPending{}},
		flowFuncs[durFact]{
			step:  func(n ast.Node, in durFact) durFact { return step(n, in, nil) },
			join:  durJoin,
			equal: durEqual,
		})

	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, b := range g.Blocks {
		in, reachable := facts[b]
		if !reachable {
			continue
		}
		cur := in
		for _, n := range b.Nodes {
			cur = step(n, cur, report)
		}
	}
	// Pending errors that survive to the function exit were never
	// consulted on some path.
	if exitFact, ok := facts[g.Exit]; ok {
		for _, k := range sortedPendingKeys(exitFact.pending) {
			if consumed[k] {
				continue
			}
			p := exitFact.pending[k]
			report(p.pos, "%s error is never consulted; it reaches the end of the function unchecked", p.desc)
		}
	}
}

// blankDiscard reports whether RHS index i of the assignment is a bare
// identifier assigned to the blank identifier: `_ = err` explicitly
// discards the value, it does not consult it. Anything computed (`_ =
// f(err)`) still reads its operands.
func blankDiscard(n *ast.AssignStmt, i int, r ast.Expr) bool {
	if len(n.Rhs) != len(n.Lhs) {
		return false
	}
	lhs, ok := n.Lhs[i].(*ast.Ident)
	if !ok || lhs.Name != "_" {
		return false
	}
	_, isIdent := r.(*ast.Ident)
	return isIdent
}

// durAssignSource finds the RHS expression feeding lhs index i (the
// first result of a multi-value call counts for index 0).
func durAssignSource(n *ast.AssignStmt, i int) ast.Expr {
	if len(n.Rhs) == len(n.Lhs) {
		return n.Rhs[i]
	}
	if len(n.Rhs) == 1 && i == 0 {
		return n.Rhs[0]
	}
	return nil
}

func sortedPendingKeys(m map[string]durPending) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
