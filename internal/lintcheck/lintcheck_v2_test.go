package lintcheck

import (
	"strings"
	"testing"
)

// assertKeys compares diagnostics against expected (rule, file, line) keys
// in output order.
func assertKeys(t *testing.T, diags []Diagnostic, want []key) {
	t.Helper()
	got := diagKeys(diags)
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(want), diags)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSyncCloseFixture checks the syncclose rule with a Config that bans
// discarded Close/Sync there (the fixture stands in for the crash-safety
// packages DefaultConfig covers).
func TestSyncCloseFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/syncclose"
	cfg := DefaultConfig()
	cfg.SyncCloseBan = append(cfg.SyncCloseBan, dir)
	diags := Run(loadFixture(t, "./"+dir), cfg)
	assertKeys(t, diags, []key{
		{"syncclose", dir + "/bad.go", 20},
		{"syncclose", dir + "/bad.go", 27},
		{"syncclose", dir + "/bad.go", 32},
	})
	// Outside the banned prefixes the fixture is clean: the rule is scoped.
	if diags := Run(loadFixture(t, "./"+dir), DefaultConfig()); len(diags) != 0 {
		t.Errorf("unbanned fixture still produced diagnostics: %v", diags)
	}
}

// TestGoroLeakFixture checks the goroleak rule, which is unscoped: only the
// two goroutines with no join path are flagged, not the channel-, WaitGroup-,
// or context-joined ones, and not the launch whose evidence sits one level
// down in the launched function's body.
func TestGoroLeakFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/goroleak"
	diags := Run(loadFixture(t, "./"+dir), DefaultConfig())
	assertKeys(t, diags, []key{
		{"goroleak", dir + "/bad.go", 13},
		{"goroleak", dir + "/bad.go", 20},
	})
}

// TestExitCodeFixture checks the exitcode rule with a Config that applies
// the exit contract there (the fixture stands in for cmd/).
func TestExitCodeFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/exitcode"
	cfg := DefaultConfig()
	cfg.ExitContract = append(cfg.ExitContract, dir)
	diags := Run(loadFixture(t, "./"+dir), cfg)
	assertKeys(t, diags, []key{
		{"exitcode", dir + "/bad.go", 16},
		{"exitcode", dir + "/bad.go", 21},
		{"exitcode", dir + "/bad.go", 31},
		{"exitcode", dir + "/bad.go", 37},
	})
	// Outside the contract prefixes the fixture is clean: the rule is scoped.
	if diags := Run(loadFixture(t, "./"+dir), DefaultConfig()); len(diags) != 0 {
		t.Errorf("unscoped fixture still produced diagnostics: %v", diags)
	}
}

// TestHotAllocFixture checks the hotalloc rule: every allocating construct
// in the //repolint:hot functions — including both byte<->string conversion
// directions and the lvalue map-key write — nothing in the unannotated or
// clean ones, and nothing for the exempt rvalue map-read key (bad.go:45).
func TestHotAllocFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/hotalloc"
	diags := Run(loadFixture(t, "./"+dir), DefaultConfig())
	assertKeys(t, diags, []key{
		{"hotalloc", dir + "/bad.go", 10},
		{"hotalloc", dir + "/bad.go", 11},
		{"hotalloc", dir + "/bad.go", 12},
		{"hotalloc", dir + "/bad.go", 13},
		{"hotalloc", dir + "/bad.go", 14},
		{"hotalloc", dir + "/bad.go", 15},
		{"hotalloc", dir + "/bad.go", 43},
		{"hotalloc", dir + "/bad.go", 44},
		{"hotalloc", dir + "/bad.go", 46},
	})
}

// TestTransitiveFixture is the acceptance fixture for the call-graph layer:
// time.Now is reached from Entry only through two intermediate functions and
// a devirtualized interface method, and the diagnostic prints the full
// chain. The per-site rules still fire at the leaves; the transitive reports
// land at each root's first hop into the chain.
func TestTransitiveFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/transitive"
	cfg := DefaultConfig()
	cfg.TransitiveRoots = append(cfg.TransitiveRoots, dir)
	diags := Run(loadFixture(t, "./"+dir+"/..."), cfg)
	assertKeys(t, diags, []key{
		{"wallclock", dir + "/bad.go", 24},                 // root wallTicker.Tick
		{"wallclock", dir + "/bad.go", 30},                 // root Entry, 3 hops
		{"wallclock", dir + "/bad.go", 34},                 // root timestamp, devirtualized hop
		{"globalrand", dir + "/bad.go", 39},                // root Jitter
		{"globalrand", dir + "/bad.go", 43},                // per-site leaf
		{"wallclock", dir + "/bad.go", 48},                 // root Uptime, via time.Since
		{"wallclock", dir + "/bad.go", 53},                 // root Deadline, via time.Until
		{"wallclock", dir + "/clockutil/clockutil.go", 9},  // per-site leaf
		{"wallclock", dir + "/clockutil/clockutil.go", 14}, // per-site leaf, time.Since
		{"wallclock", dir + "/clockutil/clockutil.go", 19}, // per-site leaf, time.Until
	})

	var entry Diagnostic
	sources := map[int]string{48: "time.Since", 53: "time.Until"}
	for _, d := range diags {
		if d.Line == 30 {
			entry = d
		}
		if what, ok := sources[d.Line]; ok && d.File == dir+"/bad.go" && !strings.Contains(d.Message, what) {
			t.Errorf("line %d diagnostic does not name %s:\n%s", d.Line, what, d.Message)
		}
	}
	const chain = "Entry -> timestamp -> ticker.Tick => wallTicker.Tick -> clockutil.Stamp"
	if !strings.Contains(entry.Message, chain) {
		t.Errorf("Entry diagnostic does not print the chain %q:\n%s", chain, entry.Message)
	}
	if !strings.Contains(entry.Message, "time.Now") ||
		!strings.Contains(entry.Message, dir+"/clockutil/clockutil.go:9") {
		t.Errorf("Entry diagnostic does not name the forbidden source and its site:\n%s", entry.Message)
	}

	// Without the fixture in TransitiveRoots only the per-site leaves fire:
	// the transitive reports are scoped to the engine entry points.
	diags = Run(loadFixture(t, "./"+dir+"/..."), DefaultConfig())
	assertKeys(t, diags, []key{
		{"globalrand", dir + "/bad.go", 43},
		{"wallclock", dir + "/clockutil/clockutil.go", 9},
		{"wallclock", dir + "/clockutil/clockutil.go", 14},
		{"wallclock", dir + "/clockutil/clockutil.go", 19},
	})
}

// TestRuleDocs pins the -rules listing: sorted, unique, every name owned by
// an analyzer that actually runs.
func TestRuleDocs(t *testing.T) {
	docs := RuleDocs()
	if len(docs) != 15 {
		t.Fatalf("RuleDocs() returned %d rules, want 15", len(docs))
	}
	owners := make(map[string]bool)
	for _, a := range Analyzers() {
		owners[a.Name] = true
	}
	seen := make(map[string]bool)
	for i, d := range docs {
		if i > 0 && docs[i-1].Name >= d.Name {
			t.Errorf("RuleDocs not sorted at %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("duplicate rule %q", d.Name)
		}
		seen[d.Name] = true
		if !owners[d.Analyzer] {
			t.Errorf("rule %q claims unknown analyzer %q", d.Name, d.Analyzer)
		}
		if d.Doc == "" {
			t.Errorf("rule %q has no doc line", d.Name)
		}
	}
	for _, rule := range []string{"wallclock", "syncclose", "goroleak", "exitcode", "hotalloc"} {
		if !seen[rule] {
			t.Errorf("RuleDocs missing %q", rule)
		}
	}
}

// TestAllowsAudit checks the -allows listing against the allowed fixture,
// including justification capture.
func TestAllowsAudit(t *testing.T) {
	const dir = "internal/lintcheck/testdata/allowed"
	sites := Allows(loadFixture(t, "./"+dir))
	if len(sites) != 3 {
		t.Fatalf("Allows() returned %d sites, want 3:\n%+v", len(sites), sites)
	}
	for i, s := range sites {
		if s.File != dir+"/suppressed.go" {
			t.Errorf("site %d in unexpected file %s", i, s.File)
		}
		if len(s.Rules) == 0 {
			t.Errorf("site %d has no rules", i)
		}
		if !strings.Contains(s.Justification, "fixture") {
			t.Errorf("site %d justification %q not captured", i, s.Justification)
		}
		if i > 0 && sites[i-1].Line >= s.Line {
			t.Errorf("sites not in line order at %d", i)
		}
	}
	if sites[0].Rules[0] != "wallclock" || sites[2].Rules[0] != "panic" {
		t.Errorf("rule capture wrong: %+v", sites)
	}
}

// TestDefaultConfigScopesV2 pins the v2 policy additions: which prefixes are
// transitive roots, crash-safety packages, and exit-contract holders.
func TestDefaultConfigScopesV2(t *testing.T) {
	cfg := DefaultConfig()
	for _, pre := range []string{
		"internal/core", "internal/bgpsim", "internal/netsim",
		"internal/atlas", "internal/campaign",
	} {
		if !exempt(pre+"/x.go", cfg.TransitiveRoots) {
			t.Errorf("TransitiveRoots should cover %s", pre)
		}
	}
	if exempt("internal/dnsserver/server.go", cfg.TransitiveRoots) {
		t.Error("TransitiveRoots must not cover internal/dnsserver (live-socket plane)")
	}
	for _, pre := range []string{"internal/atomicio", "internal/campaign", "internal/checkpoint"} {
		if !exempt(pre+"/x.go", cfg.SyncCloseBan) {
			t.Errorf("SyncCloseBan should cover %s", pre)
		}
	}
	if exempt("internal/stats/stats.go", cfg.SyncCloseBan) {
		t.Error("SyncCloseBan must not cover internal/stats")
	}
	if !exempt("cmd/rootevent/main.go", cfg.ExitContract) {
		t.Error("ExitContract should cover cmd/")
	}
	if exempt("internal/core/exitcode.go", cfg.ExitContract) {
		t.Error("ExitContract must not cover internal/ (the constants live there)")
	}
}
