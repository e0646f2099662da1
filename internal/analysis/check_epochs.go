package analysis

// The epochs check: the PR 5 ordering contract for batched reference
// capture. Every synchronization edge in internal/mach is a
// release→acquire pair over Lamport-style sync epochs: the releasing
// side must flush its reference buffer and publish its epoch (via
// Proc.syncRelease, stored into the primitive's epoch field) BEFORE any
// waiter can observe the release — otherwise a waiter can join an epoch
// that does not yet cover the releaser's buffered references, and the
// recorder's merged order (sorted by epoch, proc, local index) is no
// longer a legal interleaving: recordings stop being byte-deterministic
// in exactly the hard-to-reproduce, scheduler-dependent way PR 5
// eliminated.
//
// Flow-sensitively, within the scoped package (internal/mach), every
// path from function entry to a waiter-waking call must contain an
// epoch publication first:
//
//   - waking calls: Broadcast/Signal on a sync.Cond, a call to a method
//     named wake (the scheduler's Proc.wake, which makes blocked
//     waiters runnable), and — in functions that publish a release time
//     (a store to a *elease* field, the Lock.Release shape) — Unlock on
//     the sync.Mutex guarding it;
//   - publications: a call to syncRelease (whose receiver flushes and
//     returns the current epoch) or a store to an epoch-named field.

import (
	"go/ast"
	"go/types"
	"strings"
)

// runEpochs applies the must-publish-before-wake analysis.
func (cfg Config) runEpochs(pass *Pass) {
	if !hasAnyPrefix(pass.Pkg.Types.Path(), cfg.EpochScope) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, g := range pass.Pkg.FuncCFGs(f) {
			runEpochsFunc(pass, info, g)
		}
	}
}

// epochPublication reports whether the atom contains an epoch
// publication: a syncRelease call or a store to an epoch-named field.
func epochPublication(info *types.Info, n ast.Node) bool {
	found := false
	inspectAtom(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if sel, ok := m.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "syncRelease" {
				found = true
			}
		case *ast.AssignStmt:
			for _, l := range m.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok &&
					strings.Contains(strings.ToLower(sel.Sel.Name), "epoch") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// wakeCall matches Broadcast/Signal on a *sync.Cond and any method call
// named wake.
func wakeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	switch sel.Sel.Name {
	case "wake":
		return true
	case "Broadcast", "Signal":
		return isSyncType(s.Recv(), "Cond")
	}
	return false
}

// mutexUnlockCall matches Unlock/RUnlock on sync.Mutex/RWMutex.
func mutexUnlockCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return false
	}
	s := info.Selections[sel]
	if s == nil {
		return false
	}
	return isSyncType(s.Recv(), "Mutex") || isSyncType(s.Recv(), "RWMutex")
}

func isSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync"
}

// storesReleaseTime reports whether the function stores to a
// release-time field (name contains "elease" but is not itself the
// epoch field) — the Lock.Release/Barrier shape where the matching
// Unlock is what lets waiters proceed.
func storesReleaseTime(g *CFG) bool {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			found := false
			inspectAtom(n, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							lower := strings.ToLower(sel.Sel.Name)
							if strings.Contains(lower, "elease") && !strings.Contains(lower, "epoch") {
								found = true
							}
						}
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

func runEpochsFunc(pass *Pass, info *types.Info, g *CFG) {
	// Pre-scan: only functions that wake someone need solving.
	wakes := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			inspectAtom(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && wakeCall(info, call) {
					wakes = true
				}
				return !wakes
			})
		}
	}
	checkUnlocks := storesReleaseTime(g)
	if !wakes && !checkUnlocks {
		return
	}

	// Must-analysis over a single bit: "an epoch publication has
	// happened on every path to here". Join is AND.
	step := func(n ast.Node, in bool) bool {
		if in {
			return true
		}
		return epochPublication(info, n)
	}
	facts := solve(g, false, flowFuncs[bool]{
		step:  step,
		join:  func(a, b bool) bool { return a && b },
		equal: func(a, b bool) bool { return a == b },
	})

	for _, b := range g.Blocks {
		in, reachable := facts[b]
		if !reachable {
			continue
		}
		cur := in
		for _, n := range b.Nodes {
			if !cur {
				if _, isDefer := n.(*ast.DeferStmt); !isDefer {
					inspectAtom(n, func(m ast.Node) bool {
						call, ok := m.(*ast.CallExpr)
						if !ok {
							return true
						}
						if wakeCall(info, call) {
							pass.Reportf(call.Pos(),
								"%s wakes waiters before publishing a recorder epoch on some path; call syncRelease (and store the epoch) first, or waiters join an epoch that does not cover the releaser's buffered references", g.FuncName())
						} else if checkUnlocks && mutexUnlockCall(info, call) {
							pass.Reportf(call.Pos(),
								"%s publishes a release time but unlocks before publishing a recorder epoch on some path; the next acquirer would join a stale epoch", g.FuncName())
						}
						return true
					})
				}
			}
			cur = step(n, cur)
		}
	}
}
