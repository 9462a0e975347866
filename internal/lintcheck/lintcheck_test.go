package lintcheck

import (
	"encoding/json"
	"strings"
	"testing"
)

// loadFixture loads one testdata package relative to the module root.
func loadFixture(t *testing.T, pattern string) []*LoadedPackage {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatalf("Load(%q): %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Load(%q): no packages", pattern)
	}
	return pkgs
}

// key is the (rule, file, line) identity of a diagnostic.
type key struct {
	rule string
	file string
	line int
}

func diagKeys(diags []Diagnostic) []key {
	keys := make([]key, len(diags))
	for i, d := range diags {
		keys[i] = key{d.Rule, d.File, d.Line}
	}
	return keys
}

// TestFixtureDiagnostics asserts, per fixture package, the exact rule, file,
// and line of every diagnostic the suite emits — in output order.
func TestFixtureDiagnostics(t *testing.T) {
	const base = "internal/lintcheck/testdata/"
	tests := []struct {
		name    string
		pattern string
		want    []key
	}{
		{
			name:    "determinism",
			pattern: "./" + base + "determinism",
			want: []key{
				{"wallclock", base + "determinism/bad.go", 15},
				{"globalrand", base + "determinism/bad.go", 20},
				{"unseededrand", base + "determinism/bad.go", 25},
				{"maprange", base + "determinism/bad.go", 31},
				{"wallclock", base + "determinism/bad.go", 54},   // time.Since
				{"wallclock", base + "determinism/bad.go", 59},   // time.Until
				{"maprange", base + "determinism/output.go", 12}, // fmt.Fprintf in a map range
				{"maprange", base + "determinism/output.go", 20}, // WriteString in a map range
			},
		},
		{
			name:    "errhygiene",
			pattern: "./" + base + "errhygiene",
			want: []key{
				{"sentinel", base + "errhygiene/bad.go", 13},
				{"errwrap", base + "errhygiene/bad.go", 20},
			},
		},
		{
			name:    "panics",
			pattern: "./" + base + "panics",
			want: []key{
				{"panic", base + "panics/bad.go", 14},
			},
		},
		{
			name:    "apihygiene",
			pattern: "./" + base + "apihygiene",
			want: []key{
				{"ctxfirst", base + "apihygiene/bad.go", 12},
				{"mutexcopy", base + "apihygiene/bad.go", 24},
				{"mutexcopy", base + "apihygiene/bad.go", 36},
			},
		},
		{
			name:    "allow comments suppress",
			pattern: "./" + base + "allowed",
			want:    nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			diags := Run(loadFixture(t, tt.pattern), DefaultConfig())
			got := diagKeys(diags)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(tt.want), diags)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("diagnostic %d: got %+v, want %+v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

// TestMapIterFixture checks the mapiter rule against its fixture with a
// Config that bans map iteration there (the fixture directory stands in for
// internal/bgpsim, which DefaultConfig covers — see TestDefaultConfigScopes).
func TestMapIterFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/mapiter"
	cfg := DefaultConfig()
	cfg.MapIterBan = append(cfg.MapIterBan, dir)
	diags := Run(loadFixture(t, "./"+dir), cfg)
	want := []key{{"mapiter", dir + "/bad.go", 13}}
	got := diagKeys(diags)
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(want), diags)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Without the ban the fixture is clean: the rule is scoped, not global.
	if diags := Run(loadFixture(t, "./"+dir), DefaultConfig()); len(diags) != 0 {
		t.Errorf("unbanned fixture still produced diagnostics: %v", diags)
	}
}

// TestAtomicWriteFixture checks the atomicwrite rule against its fixture
// with a Config that bans bare writes there (the fixture directory stands
// in for cmd/, which DefaultConfig covers — see TestDefaultConfigScopes).
func TestAtomicWriteFixture(t *testing.T) {
	const dir = "internal/lintcheck/testdata/atomicwrite"
	cfg := DefaultConfig()
	cfg.AtomicWriteBan = append(cfg.AtomicWriteBan, dir)
	diags := Run(loadFixture(t, "./"+dir), cfg)
	want := []key{
		{"atomicwrite", dir + "/bad.go", 14},
		{"atomicwrite", dir + "/bad.go", 23},
	}
	got := diagKeys(diags)
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(want), diags)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "atomicio") {
			t.Errorf("diagnostic %v does not point at the atomicio helper", d)
		}
	}
	// Outside the banned prefixes the fixture is clean: the rule is scoped.
	if diags := Run(loadFixture(t, "./"+dir), DefaultConfig()); len(diags) != 0 {
		t.Errorf("unbanned fixture still produced diagnostics: %v", diags)
	}
}

// TestRepolintSelfClean runs the full suite over the whole repository and
// requires zero findings. Every future PR inherits this test, so a change
// that reintroduces a wall-clock read, an unseeded RNG, a stray panic or a
// log.Fatal in a cmd/ binary fails the build here; a deliberate exception
// carries a justified //repolint:allow instead.
func TestRepolintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("Load ./... returned only %d packages; loader is dropping targets", len(pkgs))
	}
	for _, d := range Run(pkgs, DefaultConfig()) {
		t.Errorf("repolint violation: %s", d)
	}
}

// TestDiagnosticString pins the conventional file:line:col rendering that
// editors and CI logs parse.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "wallclock", File: "internal/x/y.go", Line: 7, Col: 3, Message: "no"}
	if got, want := d.String(), "internal/x/y.go:7:3: wallclock: no"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestDiagnosticJSON pins the -json field names.
func TestDiagnosticJSON(t *testing.T) {
	b, err := json.Marshal(Diagnostic{Rule: "panic", File: "a.go", Line: 1, Col: 2, Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"rule":"panic"`, `"file":"a.go"`, `"line":1`, `"col":2`, `"message":"m"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("JSON %s missing %s", b, field)
		}
	}
}

// TestAllowParsing covers the comment-parsing corners: multiple rules on one
// marker, comma separation, the "all" wildcard, justification text after --,
// and markers that must NOT match.
func TestAllowParsing(t *testing.T) {
	p := &LoadedPackage{}
	p.allow = map[string]map[int]map[string]bool{
		"f.go": {
			10: {"wallclock": true, "panic": true},
			20: {"all": true},
		},
	}
	tests := []struct {
		line int
		rule string
		want bool
	}{
		{10, "wallclock", true},
		{10, "panic", true},
		{10, "errwrap", false},
		{11, "wallclock", true}, // line above
		{12, "wallclock", false},
		{20, "anything", true}, // wildcard
		{21, "anything", true},
	}
	for _, tt := range tests {
		if got := p.allowed("f.go", tt.line, tt.rule); got != tt.want {
			t.Errorf("allowed(line=%d, %q) = %v, want %v", tt.line, tt.rule, got, tt.want)
		}
	}
}

// TestDefaultConfigScopes pins the repository policy: the live-socket server
// and harnesses may read the wall clock; only internal/stats may panic.
func TestDefaultConfigScopes(t *testing.T) {
	cfg := DefaultConfig()
	for _, pre := range []string{"internal/dnsserver", "cmd/", "examples/"} {
		if !exempt(pre+"/x.go", cfg.WallClockAllow) {
			t.Errorf("WallClockAllow should cover %s", pre)
		}
	}
	if exempt("internal/core/engine.go", cfg.WallClockAllow) {
		t.Error("WallClockAllow must not cover internal/core")
	}
	if !exempt("internal/stats/stats.go", cfg.PanicAllow) {
		t.Error("PanicAllow should cover internal/stats")
	}
	if exempt("internal/geo/geo.go", cfg.PanicAllow) {
		t.Error("PanicAllow must not cover internal/geo")
	}
	if !exempt("internal/bgpsim/computer.go", cfg.MapIterBan) {
		t.Error("MapIterBan should cover internal/bgpsim (the pooled route scratch)")
	}
	if exempt("internal/core/evaluator.go", cfg.MapIterBan) {
		t.Error("MapIterBan must not cover internal/core")
	}
	if !exempt("cmd/rootevent/main.go", cfg.AtomicWriteBan) {
		t.Error("AtomicWriteBan should cover cmd/ (harness output must survive SIGKILL)")
	}
	if exempt("internal/checkpoint/io.go", cfg.AtomicWriteBan) {
		t.Error("AtomicWriteBan must not cover internal/ (atomicio itself lives there)")
	}
}
