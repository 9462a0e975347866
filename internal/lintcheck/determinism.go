package lintcheck

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces the simulation plane's reproducibility
// invariants: no wall clock, no global RNG, visibly seeded RNG construction,
// and no map-iteration order escaping into returned slices or written
// output.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid time.Now/Since/Until, global math/rand, unseeded rand.New, unsorted map-range results or output, and any map-range in pooled-scratch packages",
		Run:  runDeterminism,
	}
}

// isWallClock reports whether fn is one of the time package functions that
// read the wall clock: time.Now, and time.Since and time.Until, which call it.
func isWallClock(fn *types.Func) bool {
	return isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since") || isPkgFunc(fn, "time", "Until")
}

// globalRandExceptions are math/rand package-level functions that do not
// touch the global source.
var globalRandExceptions = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // draws from the *rand.Rand it is given
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		rel := pass.RelFile(file.Pos())
		clockExempt := exempt(rel, pass.Cfg.WallClockAllow)
		mapIterBanned := exempt(rel, pass.Cfg.MapIterBan)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if mapIterBanned {
					if tv, ok := info.Types[n.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							pass.Reportf("mapiter", n.Pos(),
								"map iteration is banned in this package: pooled scratch filled in map order poisons every later consumer; index by dense key instead")
						}
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn == nil {
					return true
				}
				if !clockExempt && isWallClock(fn) {
					pass.Reportf("wallclock", n.Pos(),
						"time.%s reads the wall clock, which is forbidden in the simulation plane; model time as minute bins or thread it through the caller", fn.Name())
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" && !globalRandExceptions[fn.Name()] {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
						pass.Reportf("globalrand", n.Pos(),
							"rand.%s draws from the shared global source; use an explicitly seeded *rand.Rand", fn.Name())
					}
				}
				if !clockExempt && isPkgFunc(fn, "math/rand", "New") {
					if !isDirectNewSource(info, n) {
						pass.Reportf("unseededrand", n.Pos(),
							"rand.New's source must be a direct rand.NewSource(seed) call so the seed is visible here")
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRangeOrder(pass, n)
				}
				return true
			}
			return true
		})
	}
}

// isDirectNewSource reports whether call's first argument is itself a call to
// rand.NewSource.
func isDirectNewSource(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	return isPkgFunc(calleeFunc(info, inner), "math/rand", "NewSource")
}

// checkMapRangeOrder flags functions that range over a map, append into a
// local slice inside the loop, return that slice, and never sort it. The
// slice then carries map-iteration order — freshly randomized on every run —
// straight into results. It also flags a map range whose body writes
// output, which prints in that order; ranging over sorted keys is the fix.
func checkMapRangeOrder(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Objects appended to inside a map-range body, with the offending range
	// statement for the report position.
	type capture struct{ rng *ast.RangeStmt }
	appended := make(map[types.Object]capture)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if name := writerCall(info, rng.Body); name != "" {
			pass.Reportf("maprange", rng.Pos(),
				"%s inside a map range writes output in map-iteration order; range over sorted keys instead", name)
		}
		ast.Inspect(rng.Body, func(b ast.Node) bool {
			asg, ok := b.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				return true
			}
			call, ok := asg.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				return true
			} else if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			lhs, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			obj := identObj(info, lhs)
			if obj == nil {
				return true
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
				return true
			}
			if _, seen := appended[obj]; !seen {
				appended[obj] = capture{rng: rng}
			}
			return true
		})
		return true
	})
	if len(appended) == 0 {
		return
	}

	// A sort.* call mentioning the object anywhere in the function clears it.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sort" {
			return true
		}
		for obj := range appended {
			for _, arg := range call.Args {
				if mentionsObj(info, arg, obj) {
					delete(appended, obj)
					break
				}
			}
		}
		return true
	})

	// Report only slices that escape through a return statement.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for obj, cap := range appended {
			for _, res := range ret.Results {
				if mentionsObj(info, res, obj) {
					pass.Reportf("maprange", cap.rng.Pos(),
						"%s accumulates map-iteration order and is returned without a sort.* call", obj.Name())
					delete(appended, obj)
					break
				}
			}
		}
		return true
	})
}

// writerCall returns the name of the first call in body that writes output
// — fmt.Fprint, Fprintf or Fprintln, or a Write or WriteString method — or
// "" when there is none.
func writerCall(info *types.Info, body ast.Node) string {
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if name != "" || !ok {
			return name == ""
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		switch {
		case isPkgFunc(fn, "fmt", "Fprint"), isPkgFunc(fn, "fmt", "Fprintf"), isPkgFunc(fn, "fmt", "Fprintln"):
			name = "fmt." + fn.Name()
		case sig.Recv() != nil && (fn.Name() == "Write" || fn.Name() == "WriteString"):
			name = fn.Name()
		}
		return true
	})
	return name
}
