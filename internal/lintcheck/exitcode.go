package lintcheck

import (
	"go/ast"
	"go/types"
)

// ExitCodeAnalyzer enforces the process-exit contract in the harness
// binaries (Config.ExitContract, the cmd/ tree): exit statuses are parsed by
// the campaign supervisor and CI scripts, so they must come from the named
// core.Exit* constants — never a bare numeric literal — and never from
// log.Fatal, which hard-exits 1 while skipping the deferred cleanup the
// atomic-output discipline depends on. Flag parsing goes through a
// flag.ContinueOnError FlagSet: flag.ExitOnError and the package-level
// flag.Parse exit 2 on a bad flag, which is core.ExitPanic.
func ExitCodeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exitcode",
		Doc:  "cmd/ exits through the core.Exit* contract: no bare numeric os.Exit, no log.Fatal, no flag.ExitOnError or package-level flag.Parse",
		Run:  runExitCode,
	}
}

var logFatalFuncs = map[string]bool{
	"Fatal":   true,
	"Fatalf":  true,
	"Fatalln": true,
}

func runExitCode(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		if !exempt(pass.RelFile(file.Pos()), pass.Cfg.ExitContract) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if c, ok := info.Uses[id].(*types.Const); ok && c.Pkg() != nil && c.Pkg().Path() == "flag" && c.Name() == "ExitOnError" {
					pass.Reportf("exitcode", id.Pos(),
						"flag.ExitOnError exits 2 (core.ExitPanic) on a bad flag; use flag.ContinueOnError and exit core.UsageExit(err)")
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			switch {
			case isPkgFunc(fn, "os", "Exit") && len(call.Args) == 1:
				if _, bare := ast.Unparen(call.Args[0]).(*ast.BasicLit); bare {
					pass.Reportf("exitcode", call.Pos(),
						"bare numeric exit status; the supervisor and CI parse exit codes, so use the named core.Exit* constants")
				}
			case isPkgFunc(fn, "flag", "Parse"):
				pass.Reportf("exitcode", call.Pos(),
					"flag.Parse exits 2 (core.ExitPanic) on a bad flag; parse a flag.ContinueOnError FlagSet and exit core.UsageExit(err)")
			case isPkgFunc(fn, "log", fn.Name()) && logFatalFuncs[fn.Name()]:
				pass.Reportf("exitcode", call.Pos(),
					"log.%s exits 1 without running deferred cleanup or classifying the failure; log the error and exit through the core.Exit* contract", fn.Name())
			}
			return true
		})
	}
}
