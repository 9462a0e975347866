package lintcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TransitiveDeterminismAnalyzer makes the determinism rules (wallclock,
// globalrand, unseededrand) transitive: every function declared under
// Config.TransitiveRoots — the engine/simulation entry points — is walked
// through the approximate call graph, and any chain reaching a forbidden
// source is diagnosed at the root's first call into the chain, printing the
// full path (devirtualized hops rendered "iface.M => impl.M"). A source
// that calls the forbidden function directly is the per-site rule's job and
// is not re-reported here; a source inside a WallClockAllow prefix or under
// an allow comment does not taint its callers.
func TransitiveDeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name:       "transitive",
		Doc:        "engine/simulation entry points must not reach time.Now/Since/Until, global math/rand, or unseeded rand.New through any call chain",
		RunProgram: runTransitive,
	}
}

// taint is one forbidden source inside a function body.
type taint struct {
	rule string    // wallclock | globalrand | unseededrand
	what string    // human name of the forbidden call, e.g. "time.Now"
	pos  token.Pos // position of the forbidden call
}

func runTransitive(prog *Program) {
	g := prog.Graph
	taints := collectTaints(prog)
	if len(taints) == 0 {
		return
	}
	for _, root := range g.Funcs {
		rel := root.Pkg.relFile(root.Decl.Pos())
		if !exempt(rel, prog.Cfg.TransitiveRoots) {
			continue
		}
		reportRoot(prog, taints, root)
	}
}

// collectTaints scans every function body for direct forbidden calls,
// skipping sites that are exempt by prefix or suppressed by an allow
// comment — a justified site does not poison its callers. The result is
// keyed by FuncKey, matching the call graph.
func collectTaints(prog *Program) map[string][]taint {
	taints := make(map[string][]taint)
	for _, node := range prog.Graph.Funcs {
		info := node.Pkg.Info
		rel := node.Pkg.relFile(node.Decl.Pos())
		clockExempt := exempt(rel, prog.Cfg.WallClockAllow)
		add := func(rule, what string, pos token.Pos) {
			line := node.Pkg.Fset.Position(pos).Line
			if node.Pkg.allowed(node.Pkg.relFile(pos), line, rule) {
				return
			}
			key := FuncKey(node.Fn)
			taints[key] = append(taints[key], taint{rule: rule, what: what, pos: pos})
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			switch {
			case !clockExempt && isWallClock(fn):
				add("wallclock", "time."+fn.Name(), call.Pos())
			case !clockExempt && isPkgFunc(fn, "math/rand", "New") && !isDirectNewSource(info, call):
				add("unseededrand", "rand.New with a source hidden from the call site", call.Pos())
			case fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" && !globalRandExceptions[fn.Name()]:
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					add("globalrand", "rand."+fn.Name(), call.Pos())
				}
			}
			return true
		})
	}
	return taints
}

// reportRoot BFS-walks the graph from root and reports, once per rule, the
// shortest chain to a tainted function. The root's own direct taints are
// skipped: the per-site determinism rules already diagnose them.
func reportRoot(prog *Program, taints map[string][]taint, root *CallNode) {
	rootKey := FuncKey(root.Fn)
	prev := make(map[string]hop)
	visited := map[string]bool{rootKey: true}
	queue := []string{rootKey}
	reported := make(map[string]bool)
	for len(queue) > 0 && len(reported) < 3 {
		cur := queue[0]
		queue = queue[1:]
		if cur != rootKey {
			for _, t := range taints[cur] {
				if reported[t.rule] {
					continue
				}
				reported[t.rule] = true
				chain, firstPos := chainTo(prev, root, rootKey, cur)
				pos := prog.Pkgs[0].Fset.Position(t.pos)
				prog.Reportf(t.rule, firstPos,
					"%s can reach %s: %s (%s at %s:%d); the simulation plane must thread time and seeds through the caller",
					funcDisplay(root.Fn, root.Pkg), t.what, chain, t.what,
					prog.Pkgs[0].relFile(t.pos), pos.Line)
			}
		}
		node := prog.Graph.Nodes[cur]
		if node == nil {
			continue
		}
		for _, e := range node.Edges {
			key := FuncKey(e.Callee)
			if visited[key] {
				continue
			}
			visited[key] = true
			prev[key] = hop{from: cur, edge: e}
			queue = append(queue, key)
		}
	}
}

// chainTo reconstructs the BFS path root → … → dst as a printable chain and
// returns it with the position of the root's first call into the chain.
func chainTo(prev map[string]hop, root *CallNode, rootKey, dst string) (string, token.Pos) {
	var hops []hop
	for cur := dst; cur != rootKey; {
		h := prev[cur]
		hops = append(hops, h)
		cur = h.from
	}
	// hops is dst-first; render root-first.
	var b strings.Builder
	b.WriteString(funcDisplay(root.Fn, root.Pkg))
	for i := len(hops) - 1; i >= 0; i-- {
		e := hops[i].edge
		b.WriteString(" -> ")
		if e.Via != nil {
			b.WriteString(funcDisplay(e.Via, root.Pkg))
			b.WriteString(" => ")
		}
		b.WriteString(funcDisplay(e.Callee, root.Pkg))
	}
	return b.String(), hops[len(hops)-1].edge.Pos
}

// hop is the BFS predecessor record shared by reportRoot and chainTo: the
// caller's FuncKey and the edge taken from it.
type hop struct {
	from string
	edge CallEdge
}

// funcDisplay renders a function name for chain messages: methods as
// Type.Name, and functions from other packages as pkg.Name.
func funcDisplay(fn *types.Func, from *LoadedPackage) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	} else if fn.Pkg() != nil && (from == nil || from.Types == nil || fn.Pkg() != from.Types) {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
