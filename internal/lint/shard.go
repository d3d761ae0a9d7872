package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file holds the shard-safety analyzers: the checks that certify an
// engine-path package keeps each world's state its own, so the worlds the
// experiment runner runs concurrently in one process stay deterministic.
// They are dataflow-aware (go/types-backed) rather than purely syntactic:
// shared-mutable reasons about package state shape, rng-escape about
// substream ownership, map-order-flow about state touched under map
// iteration, and alloc-hot about allocation sites inside functions bound by
// a Performance-contract godoc. no-conc-sim fences concurrency primitives
// out of the sim path entirely.
//
// All four shard-safety checks (shared-mutable, no-conc-sim, rng-escape,
// map-order-flow) accept a //lint:invariant <reason> annotation as a
// deliberate, explained exemption in addition to //lint:ignore — the
// annotation is how the engine documents its known cross-world touchpoints.

// reportShard records a shard-safety finding unless a //lint:invariant
// annotation covers the line (same line or the line above).
func (p *Pass) reportShard(pos token.Pos, check, format string, args ...any) {
	position := p.fset.Position(pos)
	rel := p.Pkg.relFile(position.Filename)
	if p.Pkg.invariantAt(rel, position.Line) {
		return
	}
	p.reportf(pos, check, format, args...)
}

// checkSharedMutable flags package-level mutable state in engine-path
// packages: any var declaration, including maps, slices, and settable
// singletons. Every world in the process shares a package variable, so two
// concurrent runs touching it race; run state must live in constructed
// structs.
// Exempt by shape: the blank identifier (interface-compliance assertions)
// and sentinel errors (vars of type error, conventionally immutable).
func checkSharedMutable(p *Pass) {
	if len(p.Cfg.EngineScope) > 0 && !inScope(p.Pkg.Rel, p.Cfg.EngineScope) {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	for _, f := range p.Pkg.Files {
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
					if name.Name == "_" {
						continue
					}
					obj := p.Pkg.Info.Defs[name]
					if obj != nil && types.Identical(obj.Type(), errType) {
						continue // sentinel error, immutable by convention
					}
					p.reportShard(name.Pos(), "shared-mutable",
						"package-level mutable state %q in an engine package; concurrent worlds would race on it — move it into a constructed per-run struct", name.Name)
				}
			}
		}
	}
}

// checkNoConcSim flags concurrency primitives in the deterministic sim
// path: go statements, channel sends/receives, select, channel types, and
// imports of sync or sync/atomic. A simulation run is single-threaded by
// design. The experiment fan-out, bench harness, obs sinks, and CLIs
// (Config.ConcAllow) parallelize across whole runs, never inside one.
func checkNoConcSim(p *Pass) {
	if inScope(p.Pkg.Rel, p.Cfg.ConcAllow) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				p.reportShard(imp.Pos(), "no-conc-sim",
					"import of %s in the sim path; a run is single-threaded — concurrency belongs across whole runs", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.reportShard(n.Pos(), "no-conc-sim",
					"go statement in the sim path; a run is single-threaded — concurrency belongs across whole runs")
			case *ast.SendStmt:
				p.reportShard(n.Pos(), "no-conc-sim",
					"channel send in the sim path; event flow must stay on the deterministic queue")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.reportShard(n.Pos(), "no-conc-sim",
						"channel receive in the sim path; event flow must stay on the deterministic queue")
				}
			case *ast.SelectStmt:
				p.reportShard(n.Pos(), "no-conc-sim",
					"select in the sim path; a run is single-threaded — concurrency belongs across whole runs")
			case *ast.ChanType:
				p.reportShard(n.Pos(), "no-conc-sim",
					"channel type in the sim path; event flow must stay on the deterministic queue")
				return false // the contained element type needs no second visit
			}
			return true
		})
	}
}

// isStreamType reports whether t is (a pointer to) the deterministic RNG
// substream type: a named Stream or Source declared in a package named rng.
func isStreamType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "rng" {
		return false
	}
	return obj.Name() == "Stream" || obj.Name() == "Source"
}

// checkRNGEscape enforces the substream-ownership discipline that keeps
// every draw sequence a pure function of the seed: an *rng.Stream may flow
// into a subsystem only through constructor parameters. Two escapes are
// flagged: a closure that captures a substream and outlives its statement
// (stored in a struct field, returned, or handed to a non-constructor call
// — the closure drags the substream wherever it is later invoked), and a
// substream stored into a struct field from inside a method (re-seeding a
// subsystem mid-run).
func checkRNGEscape(p *Pass) {
	if len(p.Cfg.EngineScope) > 0 && !inScope(p.Pkg.Rel, p.Cfg.EngineScope) {
		return
	}
	for _, f := range p.Pkg.Files {
		allowed := p.allowedClosures(f)
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if allowed[lit] {
				return true
			}
			if name, captures := p.capturedStream(lit); captures {
				p.reportShard(lit.Pos(), "rng-escape",
					"closure capturing substream %q escapes its owning subsystem; pass the stream through a constructor parameter instead", name)
			}
			return true
		})
		// Field stores from methods: x.f = <stream> outside a constructor.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					if _, ok := lhs.(*ast.SelectorExpr); !ok {
						continue
					}
					if i < len(as.Rhs) && isStreamType(p.Pkg.Info.TypeOf(as.Rhs[i])) {
						p.reportShard(as.Pos(), "rng-escape",
							"substream stored into a struct field inside a method; substreams are assigned once, in a constructor")
					}
				}
				return true
			})
		}
	}
}

// allowedClosures classifies the closure positions that do not constitute
// an ownership escape: immediately invoked literals, literals handed to a
// constructor (New*/new* call — the sanctioned ownership transfer), and
// literals bound to a local variable or declaration (still owned by the
// enclosing function until something else moves them).
func (p *Pass) allowedClosures(f *ast.File) map[*ast.FuncLit]bool {
	allowed := make(map[*ast.FuncLit]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				allowed[lit] = true // immediately invoked
			}
			if constructorName(calleeName(n)) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						allowed[lit] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if _, local := n.Lhs[i].(*ast.Ident); local {
					allowed[lit] = true
				}
			}
		case *ast.FuncDecl:
			// Local var declarations inside function bodies keep ownership.
			if n.Body == nil {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if vs, ok := m.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						if lit, ok := v.(*ast.FuncLit); ok {
							allowed[lit] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
	return allowed
}

// calleeName extracts the called function's bare name, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// constructorName reports whether a callee name marks a constructor — the
// position where handing over a substream (or a closure around one) is the
// sanctioned ownership transfer.
func constructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// capturedStream reports whether lit references a substream variable
// declared outside the literal — a captured free variable, not a parameter.
// Field accesses (x.stream) are attributed to the captured container, not
// the stream, and are left to the field-store rule.
func (p *Pass) capturedStream(lit *ast.FuncLit) (string, bool) {
	var name string
	selected := make(map[*ast.Ident]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selected[sel.Sel] = true
		}
		return true
	})
	ast.Inspect(lit, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || selected[id] {
			return true
		}
		obj, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok || !isStreamType(obj.Type()) {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() >= lit.End() {
			name = id.Name
		}
		return true
	})
	return name, name != ""
}

// schedulingMethods are method names that enqueue work on the event stream;
// calling one per map-iteration element schedules events in map order.
var schedulingMethods = map[string]bool{
	"At": true, "After": true, "Every": true, "Push": true, "Schedule": true,
}

// checkMapOrderFlow extends ordered-map-emit from emission sites to state
// flow: inside a `for … range <map>` body it flags floating-point
// accumulation into outer state (float addition is not associative, so the
// sum depends on iteration order), order-dependent plain assignments to
// outer state (last-writer-wins and argmax patterns), and event-scheduling
// calls (map order becomes event order). Exempt by shape: per-key updates
// (outer[k] = v indexed by the loop key), assignments whose right-hand side
// is independent of the loop variables (idempotent flag sets), integer
// counters (associative), and anything under a //lint:invariant.
func checkMapOrderFlow(p *Pass) {
	if len(p.Cfg.EngineScope) > 0 && !inScope(p.Pkg.Rel, p.Cfg.EngineScope) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Pkg.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			p.checkOrderFlowBody(rng)
			return true
		})
	}
}

// loopVarObjects resolves the key and value loop variables of a range
// statement to their type objects (nil when blank or absent).
func (p *Pass) loopVarObjects(rng *ast.RangeStmt) (key, val types.Object) {
	resolve := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := p.Pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return p.Pkg.Info.Uses[id]
	}
	if rng.Key != nil {
		key = resolve(rng.Key)
	}
	if rng.Value != nil {
		val = resolve(rng.Value)
	}
	return key, val
}

func (p *Pass) checkOrderFlowBody(rng *ast.RangeStmt) {
	key, val := p.loopVarObjects(rng)
	mentionsLoopVar := func(e ast.Expr) bool {
		return (key != nil && p.mentions(e, key)) || (val != nil && p.mentions(e, val))
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				lhs := n.Lhs[0]
				obj := p.rootObject(lhs)
				if obj == nil || p.declaredWithin(obj, rng) || !p.isFloat(lhs) {
					return true
				}
				p.reportShard(n.Pos(), "map-order-flow",
					"floating-point accumulation into %q in map order; float addition is not associative — sort the keys first", obj.Name())
			case token.ASSIGN:
				for i, lhs := range n.Lhs {
					obj := p.rootObject(lhs)
					if obj == nil || p.declaredWithin(obj, rng) {
						continue
					}
					if i < len(n.Rhs) {
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok && p.appendTarget(call) != nil {
							continue // slice collection is ordered-map-emit's concern
						}
					}
					if idx := indexExprOf(lhs); idx != nil && key != nil && p.mentions(idx.Index, key) {
						continue // per-key update: outer[k] = v is order-independent
					}
					if i < len(n.Rhs) && !mentionsLoopVar(n.Rhs[i]) && !mentionsLoopVar(lhs) {
						continue // loop-invariant store: idempotent across orders
					}
					p.reportShard(n.Pos(), "map-order-flow",
						"map-order-dependent assignment to %q (last writer wins); sort the keys first", obj.Name())
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !schedulingMethods[sel.Sel.Name] || p.Pkg.Info.Selections[sel] == nil {
				return true
			}
			recv := p.rootObject(sel.X)
			if recv == nil || p.declaredWithin(recv, rng) {
				return true
			}
			p.reportShard(n.Pos(), "map-order-flow",
				"%s call inside map iteration schedules events in map order; sort the keys first", sel.Sel.Name)
		}
		return true
	})
}

// indexExprOf unwraps stars and parens to the index expression at the root
// of an assignment target, or nil.
func indexExprOf(e ast.Expr) *ast.IndexExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// allocHotMarker is the godoc phrase that binds a function to the hot-path
// allocation contract. PR 4 wrote the contracts at package level; functions
// that carry one in their own doc comment are the machine-checked surface.
const allocHotMarker = "Performance contract"

// checkAllocHot flags allocation sites inside functions whose doc comment
// carries the hot-path performance contract: heap composite literals
// (&T{...}), map and slice literals, make, closure literals, append into a
// fresh slice (in-place x = append(x, ...) growth is amortized-free and
// passes), and interface boxing of non-pointer values at call sites. The
// contracts promise steady-state allocation-free operation; every site
// here either breaks the promise or documents itself with //lint:ignore.
func checkAllocHot(p *Pass) {
	if len(p.Cfg.AllocHotScope) > 0 && !inScope(p.Pkg.Rel, p.Cfg.AllocHotScope) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil {
				continue
			}
			if !strings.Contains(fd.Doc.Text(), allocHotMarker) {
				continue
			}
			p.checkAllocsIn(fd)
		}
	}
}

func (p *Pass) checkAllocsIn(fd *ast.FuncDecl) {
	inPlace := p.inPlaceAppends(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.reportf(n.Pos(), "alloc-hot",
						"heap composite literal in a Performance-contract function; reuse scratch space or hoist the allocation")
					return false
				}
			}
		case *ast.CompositeLit:
			switch p.underlyingOf(n).(type) {
			case *types.Map, *types.Slice:
				p.reportf(n.Pos(), "alloc-hot",
					"map/slice literal allocates in a Performance-contract function; reuse scratch space or hoist the allocation")
			}
		case *ast.FuncLit:
			p.reportf(n.Pos(), "alloc-hot",
				"func literal allocates a closure in a Performance-contract function; hoist it or use a method value on reused state")
			return false
		case *ast.CallExpr:
			p.checkAllocCall(n, inPlace)
		}
		return true
	})
}

func (p *Pass) underlyingOf(e ast.Expr) types.Type {
	t := p.Pkg.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// inPlaceAppends collects append calls of the shape x = append(x, ...) or
// x = append(x[:0], ...), whose growth is amortized against the backing
// array the contract already accounts for.
func (p *Pass) inPlaceAppends(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	ok := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, rhs := range as.Rhs {
			call, isCall := rhs.(*ast.CallExpr)
			if !isCall || i >= len(as.Lhs) {
				continue
			}
			target := p.appendTarget(call)
			if target == nil {
				continue
			}
			if p.rootObject(as.Lhs[i]) == target {
				ok[call] = true
			}
		}
		return true
	})
	return ok
}

// checkAllocCall flags builtin make, non-in-place append, and interface
// boxing of non-pointer arguments inside a contract function.
func (p *Pass) checkAllocCall(call *ast.CallExpr, inPlace map[*ast.CallExpr]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := p.Pkg.Info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make":
				p.reportf(call.Pos(), "alloc-hot",
					"make in a Performance-contract function; allocate in the constructor and reuse")
			case "append":
				if !inPlace[call] {
					p.reportf(call.Pos(), "alloc-hot",
						"append into a fresh slice in a Performance-contract function; grow in place (x = append(x, ...)) against reused backing")
				}
			}
			return
		}
	}
	sig, ok := p.Pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // args... re-passes the slice itself; no boxing
			}
			slice, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			param = slice.Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if p.boxesInterface(arg, param) {
			p.reportf(arg.Pos(), "alloc-hot",
				"interface boxing of a non-pointer value in a Performance-contract function; pass a pointer or hoist off the hot path")
		}
	}
}

// boxesInterface reports whether passing arg to a parameter of type param
// converts a concrete non-pointer value to an interface — the conversion
// that allocates when the value escapes. Pointers fit the interface data
// word and are free; type parameters are resolved at instantiation and are
// not interfaces at runtime.
func (p *Pass) boxesInterface(arg ast.Expr, param types.Type) bool {
	if param == nil {
		return false
	}
	if _, isTP := param.(*types.TypeParam); isTP {
		return false
	}
	if _, isIface := param.Underlying().(*types.Interface); !isIface {
		return false
	}
	tv, ok := p.Pkg.Info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	at := tv.Type
	if _, isTP := at.(*types.TypeParam); isTP {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return false
	}
	return true
}
