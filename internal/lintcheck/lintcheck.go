// This file holds the shared analysis machinery: diagnostics, configuration,
// the per-package and whole-program pass types, the rule registry, and the
// type-query helpers every analyzer uses. The suite's documentation lives in
// doc.go.
package lintcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by module-relative file path.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Config scopes the rules. Paths are slash-separated prefixes relative to the
// module root; a file under any listed prefix is exempt from that rule set.
type Config struct {
	// WallClockAllow exempts packages from the wallclock and unseededrand
	// rules: live-socket code genuinely needs deadlines, and cmd/ harnesses
	// may time their own runs.
	WallClockAllow []string
	// PanicAllow exempts packages from the panic rule. The rule itself only
	// looks inside internal/.
	PanicAllow []string
	// MapIterBan lists packages where ranging over a map is forbidden
	// entirely (the mapiter rule): pooled scratch state makes the weaker
	// escape analysis of maprange insufficient there.
	MapIterBan []string
	// AtomicWriteBan lists prefixes where bare os.Create / os.WriteFile is
	// forbidden (the atomicwrite rule): harness output must survive the
	// kill/resume soak's SIGKILLs without tearing.
	AtomicWriteBan []string
	// TransitiveRoots lists the engine/simulation entry-point prefixes. The
	// transitive determinism analyzer walks the call graph from every
	// function declared under these prefixes and diagnoses any chain that
	// reaches a forbidden time/randomness source, printing the chain.
	TransitiveRoots []string
	// SyncCloseBan lists the crash-safety prefixes where a discarded
	// Close/Sync error on a writable file (or on a durability type the
	// packages define) is forbidden (the syncclose rule).
	SyncCloseBan []string
	// ExitContract lists prefixes (the cmd/ harnesses) that must exit
	// through the documented core.Exit* contract (the exitcode rule): no
	// bare numeric os.Exit statuses, no log.Fatal, no flag.ExitOnError or
	// package-level flag.Parse.
	ExitContract []string
}

// DefaultConfig is the repository policy: wall clock is allowed in the
// live-socket dnsserver package, command-line harnesses, and examples;
// panics are allowed only for internal/stats shape assertions.
func DefaultConfig() Config {
	return Config{
		// internal/sitemgr drives live sockets only through dnsserver: its
		// tick cadence is cmd/sitemgr's ticker, and its state machine is
		// tick-driven and clock-free.
		WallClockAllow: []string{"internal/dnsserver", "cmd/", "examples/"},
		PanicAllow:     []string{"internal/stats"},
		// bgpsim's route solver breaks exact ties by adjacency-list order;
		// a map-range there could write iteration order into a table that
		// outlives the function the maprange rule analyzes.
		MapIterBan: []string{"internal/bgpsim"},
		// The command harnesses are what the kill/resume soak SIGKILLs;
		// their output files must be atomic or a crash tears out/.
		AtomicWriteBan: []string{"cmd/"},
		// The packages whose functions anchor every reproduction claim:
		// the parallel engine, the routing and queue models, the
		// measurement store, and the campaign grid expansion. Anything
		// they can reach — however many frames down — is simulation
		// plane.
		TransitiveRoots: []string{
			"internal/core", "internal/bgpsim", "internal/netsim",
			"internal/atlas", "internal/campaign",
		},
		// The crash-safety packages: the atomic writer, the shared ledger
		// framing, the campaign runner, the checkpoint store, and the site
		// manager's decision journal. A swallowed Close/Sync error there is
		// a durability claim silently broken.
		SyncCloseBan: []string{
			"internal/atomicio", "internal/ledger", "internal/campaign",
			"internal/checkpoint", "internal/sitemgr",
		},
		// Harness exit statuses are parsed by the campaign supervisor and
		// CI scripts; they are part of the core.Exit* contract.
		ExitContract: []string{"cmd/"},
	}
}

// Analyzer is one named pass. Run analyzes one package at a time;
// RunProgram, when set, runs once over the whole loaded program with the
// shared call graph (the transitive analyses). An analyzer sets one or the
// other.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*Program)
}

// Pass carries one package through one analyzer and collects reports.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *LoadedPackage
	Cfg      Config

	diags []Diagnostic
}

// RelFile returns the module-relative slash path of the file containing pos.
func (p *Pass) RelFile(pos token.Pos) string {
	return p.Pkg.relFile(pos)
}

// Reportf records a diagnostic for rule at pos unless an allow comment
// suppresses it.
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	rel := p.Pkg.relFile(pos)
	if p.Pkg.allowed(rel, position.Line, rule) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Rule:    rule,
		File:    rel,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Program carries the whole loaded package set through one whole-program
// analyzer, with the shared approximate call graph.
type Program struct {
	Pkgs  []*LoadedPackage
	Cfg   Config
	Graph *CallGraph

	// byFile maps each module-relative file path to its owning package, so
	// program-level reports honor that file's //repolint:allow comments.
	byFile map[string]*LoadedPackage
	diags  []Diagnostic
}

// NewProgram assembles the whole-program analysis state, building the call
// graph over every loaded package.
func NewProgram(pkgs []*LoadedPackage, cfg Config) *Program {
	prog := &Program{
		Pkgs:   pkgs,
		Cfg:    cfg,
		Graph:  BuildCallGraph(pkgs),
		byFile: make(map[string]*LoadedPackage),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			prog.byFile[pkg.relFile(f.Pos())] = pkg
		}
	}
	return prog
}

// Reportf records a program-level diagnostic for rule at pos unless an allow
// comment in the owning file suppresses it.
func (p *Program) Reportf(rule string, pos token.Pos, format string, args ...any) {
	if len(p.Pkgs) == 0 {
		return
	}
	// All packages share one FileSet and module root (see Load), so any
	// package resolves the position.
	anchor := p.Pkgs[0]
	position := anchor.Fset.Position(pos)
	rel := anchor.relFile(pos)
	if pkg := p.byFile[rel]; pkg != nil && pkg.allowed(rel, position.Line, rule) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Rule:    rule,
		File:    rel,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// exempt reports whether rel (a module-relative slash path) falls under any
// of the given path prefixes.
func exempt(rel string, prefixes []string) bool {
	for _, pre := range prefixes {
		if strings.HasPrefix(rel, pre) {
			return true
		}
	}
	return false
}

// Analyzers returns the full repository rule suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		TransitiveDeterminismAnalyzer(),
		ErrHygieneAnalyzer(),
		PanicPolicyAnalyzer(),
		APIHygieneAnalyzer(),
		AtomicWriteAnalyzer(),
		SyncCloseAnalyzer(),
		GoroLeakAnalyzer(),
		ExitCodeAnalyzer(),
		HotAllocAnalyzer(),
	}
}

// RuleDoc is one diagnosable rule name with its one-line description and the
// analyzer that owns it — the `repolint -rules` listing.
type RuleDoc struct {
	Name     string `json:"name"`
	Doc      string `json:"doc"`
	Analyzer string `json:"analyzer"`
}

// RuleDocs returns every rule the suite can emit, sorted by name. The README
// "Determinism invariants" table is kept in sync against this listing.
func RuleDocs() []RuleDoc {
	docs := []RuleDoc{
		{"wallclock", "no time.Now (nor time.Since/Until) in the simulation plane; also enforced transitively from the engine entry points", "determinism"},
		{"globalrand", "no package-level math/rand draws from the shared global source; also enforced transitively", "determinism"},
		{"unseededrand", "rand.New's source must be a direct rand.NewSource(seed) call; also enforced transitively", "determinism"},
		{"maprange", "no returning a slice appended in map-iteration order without a sort.* call, and no writing output (fmt.Fprint*, Write, WriteString) inside a map range", "determinism"},
		{"mapiter", "no map iteration at all in pooled-scratch packages (internal/bgpsim)", "determinism"},
		{"errwrap", "fmt.Errorf with an error-typed argument must use %w", "errhygiene"},
		{"sentinel", "package-level sentinel errors must be errors.New, not fmt.Errorf", "errhygiene"},
		{"panic", "no panic() in internal/ outside the allowlist", "panicpolicy"},
		{"ctxfirst", "context.Context must be the first parameter", "apihygiene"},
		{"mutexcopy", "no sync primitive (or type containing one) passed or returned by value", "apihygiene"},
		{"atomicwrite", "whole-file writes in cmd/ harnesses go through internal/atomicio, not bare os.Create/os.WriteFile", "atomicwrite"},
		{"syncclose", "no discarded Close/Sync error on writable files or durability types in the crash-safety packages", "syncclose"},
		{"goroleak", "no goroutine launched without a visible join path (context, channel, or WaitGroup)", "goroleak"},
		{"exitcode", "cmd/ exits through the core.Exit* contract: no bare numeric os.Exit, no log.Fatal, no flag.ExitOnError or package-level flag.Parse", "exitcode"},
		{"hotalloc", "//repolint:hot functions stay allocation-free: no append, make, new, map/slice literals, or closures", "hotalloc"},
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	return docs
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by file, line, column, then rule.
func Run(pkgs []*LoadedPackage, cfg Config) []Diagnostic {
	return RunAnalyzers(pkgs, Analyzers(), cfg)
}

// RunAnalyzers applies a specific analyzer set. Per-package analyzers run
// over each package; whole-program analyzers run once, sharing one call
// graph, built only when some analyzer needs it.
func RunAnalyzers(pkgs []*LoadedPackage, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Cfg: cfg}
			a.Run(pass)
			out = append(out, pass.diags...)
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs, cfg)
		}
		a.RunProgram(prog)
	}
	if prog != nil {
		out = append(out, prog.diags...)
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders diags by file, line, column, then rule — the
// suite's canonical output order.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
}

// --- shared type-query helpers used by the analyzers ---

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil when the callee is not a named function.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errIface)
}

// identObj resolves an identifier to its object, whether this occurrence
// defines or uses it.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// mentionsObj reports whether any identifier under n resolves to obj.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && identObj(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// cleanRelPath normalises a module-relative path for prefix matching.
func cleanRelPath(rel string) string {
	return path.Clean(strings.ReplaceAll(rel, "\\", "/"))
}
