package analysis

import (
	"go/ast"
	"go/types"
)

// nilgateScope: the two engines and the decision kernel they share carry
// the "disabled telemetry/tracing = zero cost" contract
// (docs/observability.md); every capture call they make must therefore be
// dominated by a nil check of the probe or sink.
var nilgateScope = []string{"internal/sim", "internal/server", "internal/engine"}

// NilGate checks that every telemetry/dectrace/health capture call site
// in the engines is dominated by a nil check of its receiver. Recognized
// capture receivers: *telemetry.Probe (Due, Record),
// *telemetry.Histogram (Observe, ObserveDuration), dectrace.Sink
// (Observe) and *health.Monitor (Observe). Accepted gates, within the
// enclosing function:
//
//   - an enclosing `if recv != nil { ... }` (any && conjunct),
//   - an early return `if recv == nil { return }` before the call,
//   - a receiver assigned from a gated expression or from a never-nil
//     source (&T{...}, telemetry.NewHistogram, Probe.Histogram),
//   - for histograms only: a dominating nil check of any *telemetry.Probe
//     expression — the engines resolve their histograms from the probe
//     once at construction, so `s.tel != nil` implies the cached
//     histogram fields are non-nil (the documented resolved-once idiom).
var NilGate = &Analyzer{
	Name: "nilgate",
	Doc:  "require telemetry/dectrace/health capture calls to be nil-gated (disabled = zero cost)",
	Run:  runNilGate,
}

func runNilGate(pass *Pass) {
	if !pass.InScope(nilgateScope...) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &nilgateWalker{pass: pass}
			w.block(fd.Body.List, newGuards())
		}
	}
}

// guards tracks expressions (by canonical source text) known non-nil at
// the current program point, with their static types.
type guards struct {
	known map[string]types.Type
	// probe is true when some *telemetry.Probe expression is guarded,
	// which by the resolved-once idiom also gates histogram fields.
	probe bool
}

func newGuards() *guards {
	return &guards{known: map[string]types.Type{}}
}

func (g *guards) clone() *guards {
	c := &guards{known: make(map[string]types.Type, len(g.known)), probe: g.probe}
	for k, v := range g.known {
		c.known[k] = v
	}
	return c
}

func (g *guards) add(pass *Pass, e ast.Expr) {
	key := types.ExprString(e)
	t := pass.Info.TypeOf(e)
	g.known[key] = t
	if isNamedPtr(t, "telemetry", "Probe") {
		g.probe = true
	}
}

type nilgateWalker struct {
	pass *Pass
}

// block walks a statement list linearly, threading the guard state.
func (w *nilgateWalker) block(stmts []ast.Stmt, g *guards) {
	for _, s := range stmts {
		w.stmt(s, g)
	}
}

func (w *nilgateWalker) stmt(s ast.Stmt, g *guards) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		w.checkCond(s.Cond, g)
		nonNil, isNil := splitNilCond(s.Cond)
		then := g.clone()
		for _, e := range nonNil {
			then.add(w.pass, e)
		}
		w.block(s.Body.List, then)
		if s.Else != nil {
			els := g.clone()
			for _, e := range isNil {
				els.add(w.pass, e)
			}
			w.stmt(s.Else, els)
		}
		// `if x == nil { return }`: x is non-nil for the rest of the
		// enclosing block.
		if len(isNil) > 0 && terminates(s.Body) {
			for _, e := range isNil {
				g.add(w.pass, e)
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.checkExpr(rhs, g)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				key := types.ExprString(lhs)
				if w.nonNilSource(s.Rhs[i], g) {
					g.add(w.pass, lhs)
				} else {
					delete(g.known, key)
				}
			}
		}
	case *ast.BlockStmt:
		w.block(s.List, g.clone())
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, g)
		}
		w.block(s.Body.List, g.clone())
	case *ast.RangeStmt:
		w.checkExpr(s.X, g)
		w.block(s.Body.List, g.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, g)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, g.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, g.clone())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.block(cc.Body, g.clone())
			}
		}
	case *ast.ExprStmt:
		w.checkExpr(s.X, g)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, g)
		}
	case *ast.DeferStmt:
		w.checkExpr(s.Call, g)
	case *ast.GoStmt:
		w.checkExpr(s.Call, g)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.BranchStmt,
		*ast.EmptyStmt, *ast.LabeledStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.checkExpr(e, g)
				return false
			}
			return true
		})
	}
}

// checkCond checks a boolean condition, threading short-circuit
// knowledge: in `a != nil && a.M()` the right operand only evaluates
// under the left's guard, and in `a == nil || a.M()` the right operand
// only evaluates when a is non-nil.
func (w *nilgateWalker) checkCond(cond ast.Expr, g *guards) {
	if p, ok := cond.(*ast.ParenExpr); ok {
		w.checkCond(p.X, g)
		return
	}
	if b, ok := cond.(*ast.BinaryExpr); ok {
		switch b.Op.String() {
		case "&&":
			w.checkCond(b.X, g)
			rhs := g.clone()
			nonNil, _ := splitNilCond(b.X)
			for _, e := range nonNil {
				rhs.add(w.pass, e)
			}
			w.checkCond(b.Y, rhs)
			return
		case "||":
			w.checkCond(b.X, g)
			rhs := g.clone()
			_, isNil := splitNilCond(b.X)
			for _, e := range isNil {
				rhs.add(w.pass, e)
			}
			w.checkCond(b.Y, rhs)
			return
		}
	}
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op.String() == "!" {
		w.checkCond(u.X, g)
		return
	}
	w.checkExpr(cond, g)
}

// checkExpr inspects an expression for capture calls, descending into
// nested calls and function literals (which inherit the current guards:
// the engines only build capture closures inside their gates).
func (w *nilgateWalker) checkExpr(e ast.Expr, g *guards) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.block(n.Body.List, g.clone())
			return false
		case *ast.CallExpr:
			w.checkCapture(n, g)
		}
		return true
	})
}

// checkCapture reports a capture call whose receiver is not gated.
func (w *nilgateWalker) checkCapture(call *ast.CallExpr, g *guards) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := sel.X
	t := w.pass.Info.TypeOf(recv)
	if t == nil {
		return
	}
	method := sel.Sel.Name
	var kind string
	switch {
	case isNamedPtr(t, "telemetry", "Probe") &&
		(method == "Due" || method == "Record"):
		kind = "probe"
	case isNamedPtr(t, "telemetry", "Histogram") &&
		(method == "Observe" || method == "ObserveDuration"):
		kind = "histogram"
	case isNamed(t, "dectrace", "Sink"):
		kind = "sink"
	case isNamedPtr(t, "health", "Monitor") && method == "Observe":
		kind = "monitor"
	default:
		return
	}
	key := types.ExprString(recv)
	if _, ok := g.known[key]; ok {
		return
	}
	if kind == "histogram" && g.probe {
		return // resolved-once idiom: the probe gate covers its histograms
	}
	w.pass.Reportf(call.Pos(),
		"%s capture %s.%s is not dominated by a nil check of %s: every telemetry/dectrace call site must be nil-gated so disabled instrumentation costs nothing",
		kind, key, method, key)
}

// nonNilSource reports whether an expression is known non-nil: a gated
// expression, an address-of composite literal, new(T), or one of the
// never-nil constructors (telemetry.NewHistogram, Probe.Histogram).
func (w *nilgateWalker) nonNilSource(e ast.Expr, g *guards) bool {
	if _, ok := g.known[types.ExprString(e)]; ok {
		return true
	}
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if _, ok := e.X.(*ast.CompositeLit); ok {
			return true
		}
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "new" {
				return true
			}
		case *ast.SelectorExpr:
			if obj, ok := w.pass.Info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
				if obj.Pkg().Name() == "telemetry" &&
					(obj.Name() == "NewHistogram" || obj.Name() == "Histogram") {
					return true
				}
			}
		}
	}
	return false
}

// splitNilCond extracts from a condition the expressions proven non-nil
// when it holds (x != nil conjuncts) and proven nil (x == nil, single
// comparison or pure || chain of them).
func splitNilCond(cond ast.Expr) (nonNil, isNil []ast.Expr) {
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "&&":
			l1, _ := splitNilCond(c.X)
			l2, _ := splitNilCond(c.Y)
			return append(l1, l2...), nil
		case "||":
			// When the whole disjunction is false every disjunct is
			// false, so each `x == nil` disjunct proves x non-nil in the
			// else branch / after a terminating body — even when mixed
			// with unrelated disjuncts.
			_, r1 := splitNilCond(c.X)
			_, r2 := splitNilCond(c.Y)
			return nil, append(r1, r2...)
		case "!=":
			if e := nilComparand(c); e != nil {
				return []ast.Expr{e}, nil
			}
		case "==":
			if e := nilComparand(c); e != nil {
				return nil, []ast.Expr{e}
			}
		}
	case *ast.ParenExpr:
		return splitNilCond(c.X)
	}
	return nil, nil
}

// nilComparand returns the non-nil side of a comparison against nil.
func nilComparand(b *ast.BinaryExpr) ast.Expr {
	if isNilIdent(b.Y) {
		return b.X
	}
	if isNilIdent(b.X) {
		return b.Y
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always transfers control away
// (return, panic, or a branch statement ending the surrounding flow).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isNamedPtr reports whether t is *pkg.Name for a package with the
// given name. Matching is by package name, not full path, so the same
// analyzer covers both the real tree and testdata fixtures.
func isNamedPtr(t types.Type, pkgName, typeName string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamed(p.Elem(), pkgName, typeName)
}

func isNamed(t types.Type, pkgName, typeName string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
