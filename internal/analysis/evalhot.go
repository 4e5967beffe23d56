package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EvalHot polices the batch-evaluation hot path. Functions opt in with an
//
//	//evalhot:loop
//
// line in their doc comment — the per-family kernel loops of internal/eval
// and the helpers they inline (the flattened polynomial, the special
// classifier, the precompiled rounder) all carry the marker.
// Inside a marked function the analyzer forbids everything the batch
// contract hoists to Compile time:
//
//   - math/big references: arbitrary precision belongs in generation, never
//     in serving;
//   - dynamic interface method calls: the kernel must be fully
//     devirtualized so every call is static;
//   - sort package calls: per-input sort.Search is exactly the dispatch
//     cost the compiled classifier exists to remove;
//   - allocating expressions (make, new, append, closures, slice/map
//     literals, string concatenation, fmt calls): the loop runs
//     allocation-free by contract, pinned dynamically by the
//     AllocsPerRun tests and statically here.
//
// The analyzer also requires the internal/eval package itself to contain at
// least one marked function, so the restrictions cannot be silently opted
// out of by deleting markers.
//
// Interprocedural escalation: every function transitively callable from a
// marked function — over static calls and conservative function-value
// edges, across packages — must satisfy the same restrictions, so a helper
// extracted out of EvalBatch cannot silently reintroduce an allocation.
// Dynamic interface edges are not followed (the dynamic call is itself a
// violation at its call site). A function marked //evalhot:cold in its doc
// comment is the audited slow-path escape: the walk stops there, for code
// the hot loop reaches only on inputs the reduction already rejected (the
// special-value path). `rlibm-lint -why` prints the marker-to-violation
// call path for escalated findings.
var EvalHot = &Analyzer{
	Name:            "evalhot",
	Doc:             "forbidden construct in a marked batch-evaluation hot loop or a function it transitively calls",
	Run:             runEvalHot,
	Interprocedural: true,
}

// evalHotMarked reports whether the function's doc comment carries the
// //evalhot:loop marker.
func evalHotMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//evalhot:loop" || strings.HasPrefix(c.Text, "//evalhot:loop ") {
			return true
		}
	}
	return false
}

func runEvalHot(p *Pass) []Diagnostic {
	var diags []Diagnostic
	marked := 0
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !evalHotMarked(fd) {
				continue
			}
			marked++
			if fd.Body != nil {
				diags = append(diags, p.checkEvalHot(fd)...)
			}
		}
	}
	if marked == 0 && p.Pkg.ImportPath == p.Module.Path+"/internal/eval" && len(p.Pkg.Files) > 0 {
		diags = append(diags, p.report("evalhot", p.Pkg.Files[0].Name,
			"package %s has no //evalhot:loop functions: the batch kernel's hot loop must be marked so its restrictions stay enforced", p.Pkg.ImportPath))
	}
	diags = append(diags, p.runEvalHotInter()...)
	return diags
}

// runEvalHotInter escalates the hot-loop restrictions to every unmarked
// function declared in this package that is transitively callable from a
// //evalhot:loop marker anywhere in the unit.
func (p *Pass) runEvalHotInter() []Diagnostic {
	in := p.Interp
	if in == nil {
		return nil
	}
	var diags []Diagnostic
	for _, n := range in.Graph.Nodes {
		if n.Pkg != p.Pkg || evalHotMarked(n.Decl) || docMarker(n.Decl, "//evalhot:cold") {
			continue
		}
		if e, ok := in.hotReach[n]; !ok || e == nil {
			continue
		}
		ds := p.checkEvalHot(n.Decl)
		if len(ds) == 0 {
			continue
		}
		path := in.Graph.PathTo(in.hotReach, n)
		root := ""
		if len(path) > 0 {
			root = path[0].Func
		}
		for _, d := range ds {
			d.Message += " (transitively called from //evalhot:loop root " + root + ")"
			d.Path = path
			diags = append(diags, d)
		}
	}
	return diags
}

// checkEvalHot walks one marked function body.
func (p *Pass) checkEvalHot(fd *ast.FuncDecl) []Diagnostic {
	name := fd.Name.Name
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if _, isPkg := obj.(*types.PkgName); obj != nil && !isPkg &&
				obj.Pkg() != nil && obj.Pkg().Path() == "math/big" {
				diags = append(diags, p.report("evalhot", x,
					"math/big reference %s in hot-loop function %s: arbitrary precision belongs in generation, never in the batch eval path", x.Name, name))
			}
		case *ast.CallExpr:
			diags = append(diags, p.checkEvalHotCall(x, name)...)
		case *ast.FuncLit:
			diags = append(diags, p.report("evalhot", x,
				"function literal in hot-loop function %s: closures allocate; hoist the code to a named function", name))
			return false // the literal's body is not part of the marked loop
		case *ast.CompositeLit:
			switch p.Info.Types[x].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				diags = append(diags, p.report("evalhot", x,
					"slice or map literal in hot-loop function %s: allocate at Compile time, not per batch", name))
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(p.Info.Types[x.X].Type) {
				diags = append(diags, p.report("evalhot", x,
					"string concatenation in hot-loop function %s: building strings allocates", name))
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(p.Info.Types[x.Lhs[0]].Type) {
				diags = append(diags, p.report("evalhot", x,
					"string concatenation in hot-loop function %s: building strings allocates", name))
			}
		}
		return true
	})
	return diags
}

// checkEvalHotCall classifies one call inside a marked body.
func (p *Pass) checkEvalHotCall(call *ast.CallExpr, name string) []Diagnostic {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				return []Diagnostic{p.report("evalhot", call,
					"%s in hot-loop function %s: the batch loop runs allocation-free; allocate at Compile time", b.Name(), name)}
			}
			return nil
		}
	}
	fn := p.funcOf(call)
	if fn == nil {
		return nil
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sort":
			return []Diagnostic{p.report("evalhot", call,
				"sort.%s in hot-loop function %s: per-input binary search is the dispatch cost Compile removes; use the precompiled classifier", fn.Name(), name)}
		case "fmt":
			return []Diagnostic{p.report("evalhot", call,
				"fmt.%s in hot-loop function %s: formatting allocates; hot loops report through counters", fn.Name(), name)}
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		return []Diagnostic{p.report("evalhot", call,
			"dynamic interface call %s in hot-loop function %s: the kernel must be devirtualized so every call is static", fn.Name(), name)}
	}
	return nil
}
