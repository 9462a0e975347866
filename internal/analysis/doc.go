// Package analysis derives every table and figure of the paper's
// evaluation (§3) from a completed simulation (core.Evaluator) and its
// measurement dataset (atlas.Dataset).
//
// The entry point is the Analyzer: construct it once with New(ev, d) and
// call one method per figure or table. Each method returns a plain-data
// result that internal/report renders:
//
//	a := analysis.New(ev, d)
//	t2 := a.Table2()
//	f4, err := a.Figure4()
//	rows, err := a.DNSMON()
//
// Figure and table computations walk the dataset through its columnar
// cursors (atlas.Dataset.Rows / RawRows), so they scan contiguous column
// slices with no per-row allocation. The series several figures derive from
// (a letter's per-site catchments, its median RTT) are computed once per
// Analyzer and handed out as copies; methods that need only the simulation
// (Figure9, Figure15, Table3, LetterFlips, UserImpact) read the evaluator
// directly.
//
// # Migration from the free functions
//
// Before the Analyzer, every computation was a free function threading the
// same (ev, d) pair: Figure3(ev, d), Table2(ev, d), SiteCorrelation(ev, d),
// and so on. Those functions survive in deprecated.go as thin wrappers over
// the Analyzer methods — same names, same arguments, same results — and
// will be removed one release after the redesign. To migrate, build the
// Analyzer once and drop the leading (ev, d) arguments from each call:
//
//	analysis.Figure10(ev, d, 'K', codes, 1)  ->  a.Figure10('K', codes, 1)
//	analysis.Table3(ev, 0)                   ->  a.Table3(0)
//	analysis.UserImpact(ev, cfg)             ->  a.UserImpact(cfg)
//
// PolicyAblation and MatchesKnownEvents remain free functions: the former
// runs whole simulations from a config (there is no single ev/d pair), and
// the latter scores already-computed windows against a schedule.
package analysis
