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
// ScorePolicy and MatchesKnownEvents are free functions: the former scores
// a run that has no measurement dataset, and the latter scores
// already-computed windows against a schedule.
package analysis
