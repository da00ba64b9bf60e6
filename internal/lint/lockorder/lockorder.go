// Package lockorder defines an analyzer enforcing the engine's documented
// mutex discipline and its log-before-publish invariant.
//
// The Engine's concurrency design rests on three rules that live today in
// code comments (engine.go, ingest.go, durable.go) and hold only by
// convention:
//
//  1. Lock order. Engine mutexes nest in one direction only:
//     mu → closeMu → viewMu → subMu. Acquiring a lower-ranked mutex while
//     holding a higher-ranked one is a lock-inversion deadlock waiting for
//     the right interleaving.
//  2. ingestMu is a leaf. It guards the submit queue and lifecycle flags
//     and is NEVER held across an apply or a rank — the ingest loop drops
//     it before publishing so submitters are not blocked behind a sweep.
//     An apply is a store publish or a call to one of the Engine's publish
//     paths (storeApply, publish, applyLogged).
//  3. Log-before-publish. While holding the durability mutex, a publish
//     through snapshot.Store.Apply* must be preceded by a wal Log.Append in
//     the same critical section; and outside Engine.storeApply no
//     production code publishes through the store directly at all — the
//     wrapper is the single point where WAL ordering is enforced. (The
//     store's own methods delegating to each other, and tests driving the
//     store directly, are exempt; they are below the WAL, not around it.)
//     The engine has two publish paths: Engine.publish, for rounds it logs
//     itself through storeApply, and Engine.applyLogged, the one path for
//     records already in a log (a replica's stream, a promotion's tail,
//     warm-restart replay). applyLogged publishes through Store.ApplyAt
//     without appending — appending would double the log — and carries
//     the only //lint:allow lockorder in production code.
//
// The analysis is a linear, defer-aware scan of each function body (lock
// intervals by source position, closures analyzed as their own scopes).
// It is deliberately intra-procedural: the repo's convention is that no
// function calls another Engine method while holding an Engine mutex
// except through the documented *Locked helpers, so single-function
// intervals capture the real discipline. A cross-function protocol the
// scan cannot see (applyLogged's records being durable already) carries a
// //lint:allow lockorder with the reason.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dfpr/internal/lint/analysis"
	"dfpr/internal/lint/lintutil"
)

// Analyzer enforces mutex rank order, ingestMu leaf-ness, and
// log-before-publish.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "Engine mutexes nest mu→closeMu→viewMu→subMu, ingestMu is never " +
		"held across an apply or a rank, and store publishes under the " +
		"durability lock must follow a WAL append (log-before-publish)",
	Run: run,
}

// lockKey identifies a mutex field by its owning named type and field name.
type lockKey struct {
	owner string
	field string
}

// rank orders the Engine's nestable mutexes; acquiring a lower rank while
// holding a higher one is an inversion.
var rank = map[lockKey]int{
	{"Engine", "mu"}:      0,
	{"Engine", "closeMu"}: 1,
	{"Engine", "viewMu"}:  2,
	{"Engine", "subMu"}:   3,
}

var rankNames = "mu → closeMu → viewMu → subMu"

// ingestMuKey is the leaf mutex of rule 2.
var ingestMuKey = lockKey{"Engine", "ingestMu"}

// durMuKey is the durability serialisation mutex of rule 3.
var durMuKey = lockKey{"durability", "mu"}

// enginePublishers are the Engine methods that publish a graph version;
// like a store publish or a Rank, none may run under ingestMu (rule 2).
var enginePublishers = map[string]bool{"storeApply": true, "publish": true, "applyLogged": true}

func run(pass *analysis.Pass) (interface{}, error) {
	lintutil.ForEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		inTest := strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go")
		// The store's own methods delegating to each other is not a
		// publish around the WAL; rule 3 targets callers of the store.
		onStore := receiverName(pass.TypesInfo, fd) == "Store"
		for _, scope := range scopes(fd.Body) {
			simulate(pass, fd.Name.Name, scope, inTest || onStore)
		}
	})
	return nil, nil
}

// scopes yields the function body plus every nested function literal body:
// each runs on its own goroutine or call path, so lock intervals do not
// cross the boundary.
func scopes(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, fl.Body)
		}
		return true
	})
	return out
}

// event is one lock, unlock, or call occurrence in source order.
type event struct {
	pos      token.Pos
	kind     int // 0 lock, 1 unlock, 2 call
	key      lockKey
	deferred bool
	// call fields
	callee string // method or function name
	recv   string // receiver named-type name ("" for plain functions)
	pkg    string // defining package path
}

// held is one currently-held mutex in the simulation.
type held struct {
	key       lockKey
	pos       token.Pos
	sawAppend bool // a WAL append has happened inside this interval
}

func simulate(pass *analysis.Pass, fname string, body *ast.BlockStmt, exemptDirect bool) {
	events := collect(pass.TypesInfo, body)
	var stack []held
	for _, ev := range events {
		switch ev.kind {
		case 0: // lock
			for _, h := range stack {
				rNew, okNew := rank[ev.key]
				rHeld, okHeld := rank[h.key]
				if okNew && okHeld && rNew < rHeld {
					pass.Reportf(ev.pos, "%s acquires %s.%s while holding %s.%s; the documented order is %s",
						fname, ev.key.owner, ev.key.field, h.key.owner, h.key.field, rankNames)
				}
			}
			stack = append(stack, held{key: ev.key, pos: ev.pos})
		case 1: // unlock
			if ev.deferred {
				continue // releases at scope exit; the interval spans the rest
			}
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].key == ev.key {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		case 2: // call
			isPublish := ev.recv == "Store" && strings.HasPrefix(ev.callee, "Apply")
			if ev.recv == "Log" && ev.callee == "Append" {
				for i := range stack {
					if stack[i].key == durMuKey {
						stack[i].sawAppend = true
					}
				}
			}
			if isPublish {
				for _, h := range stack {
					if h.key == durMuKey && !h.sawAppend {
						pass.Reportf(ev.pos, "%s publishes through Store.%s under the durability lock without a WAL append in the same critical section (log-before-publish)",
							fname, ev.callee)
					}
				}
				if fname != "storeApply" && !exemptDirect {
					pass.Reportf(ev.pos, "%s publishes through Store.%s directly; production publishes go through Engine.storeApply so the WAL append ordering holds",
						fname, ev.callee)
				}
			}
			if isPublish || ev.callee == "Rank" || (ev.recv == "Engine" && enginePublishers[ev.callee]) {
				for _, h := range stack {
					if h.key == ingestMuKey {
						pass.Reportf(ev.pos, "%s calls %s while holding Engine.ingestMu; the ingest mutex is never held across an apply or a rank",
							fname, ev.callee)
					}
				}
			}
		}
	}
}

// collect walks one scope in source order (skipping nested FuncLits, which
// get their own scope) and returns its lock/unlock/call events.
func collect(info *types.Info, body *ast.BlockStmt) []event {
	var out []event
	var deferDepth int
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				deferDepth++
				walk(n.Call)
				deferDepth--
				return false
			case *ast.CallExpr:
				if ev, ok := callEvent(info, n, deferDepth > 0); ok {
					out = append(out, ev)
				}
			}
			return true
		})
	}
	walk(body)
	return out
}

// callEvent classifies one call expression as a lock, unlock, or plain
// call event.
func callEvent(info *types.Info, call *ast.CallExpr, deferred bool) (event, bool) {
	fn := lintutil.CalleeFunc(info, call)
	if fn == nil {
		return event{}, false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		if key, ok := mutexField(info, call); ok {
			switch name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				return event{pos: call.Pos(), kind: 0, key: key}, true
			case "Unlock", "RUnlock":
				return event{pos: call.Pos(), kind: 1, key: key, deferred: deferred}, true
			}
		}
		return event{}, false
	}
	ev := event{pos: call.Pos(), kind: 2, callee: name}
	if fn.Pkg() != nil {
		ev.pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		ev.recv = namedName(sig.Recv().Type())
	}
	return ev, true
}

// mutexField resolves the x.field receiver of a sync method call to its
// owning type and field name. Only named struct fields participate — a
// local mutex variable cannot take part in a cross-component ordering.
func mutexField(info *types.Info, call *ast.CallExpr) (lockKey, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false
	}
	tv, ok := info.Types[field.X]
	if !ok {
		return lockKey{}, false
	}
	owner := namedName(tv.Type)
	if owner == "" {
		return lockKey{}, false
	}
	return lockKey{owner: owner, field: field.Sel.Name}, true
}

// receiverName returns the named type a method declaration is bound to, or
// "" for plain functions.
func receiverName(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	tv, ok := info.Types[fd.Recv.List[0].Type]
	if !ok {
		return ""
	}
	return namedName(tv.Type)
}

// namedName returns the name of t's named type, dereferencing one pointer.
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
