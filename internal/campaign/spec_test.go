package campaign

import (
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/anycast"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.VPs != 120 || s.Minutes != 480 || s.Workers != 2 || s.BotnetOrigins != 25 {
		t.Errorf("scale defaults: %+v", s)
	}
	if s.Topology == nil || s.Topology.Stubs != 400 {
		t.Errorf("topology default: %+v", s.Topology)
	}
	if s.GridSize() != 1 {
		t.Errorf("default grid size = %d, want 1", s.GridSize())
	}
	sc := s.Expand()[0]
	if sc.Schedule != "nov2015" || sc.Defense != "default" || sc.Target != "paper" || sc.Seed != 1 {
		t.Errorf("default scenario: %+v", sc)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","typo_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseSpecValidation(t *testing.T) {
	bad := []string{
		`{"axes":{"schedules":["nostalgia2012"]}}`,
		`{"axes":{"defenses":["surrender"]}}`,
		`{"axes":{"targets":["spare:Z"]}}`,
		`{"axes":{"targets":["everything"]}}`,
		`{"axes":{"faults":["random"]}}`,
		`{"axes":{"faults":["random:notanumber"]}}`,
		`{"axes":{"intensities":[-1]}}`,
		`{"axes":{"duration_scales":[0]}}`,
		`{"chaos":[{"scenario":5,"kind":"panic","minute":0}]}`,
		`{"chaos":[{"scenario":0,"kind":"meteor","minute":0}]}`,
		`{"minutes":100,"chaos":[{"scenario":0,"kind":"panic","minute":200}]}`,
	}
	for _, src := range bad {
		if _, err := ParseSpec([]byte(src)); err == nil {
			t.Errorf("accepted invalid spec %s", src)
		}
	}
}

func TestExpandDeterministicOrderAndIDs(t *testing.T) {
	src := []byte(`{"name":"grid","axes":{
		"schedules":["nov2015","june2016"],
		"defenses":["absorb","withdraw"],
		"seeds":[1,2]}}`)
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.GridSize() != 8 {
		t.Fatalf("grid size = %d, want 8", s.GridSize())
	}
	a := s.Expand()
	s2, _ := ParseSpec(src)
	b := s2.Expand()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("expand sizes %d/%d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("scenario %d: ID unstable: %s vs %s", i, a[i].ID, b[i].ID)
		}
		if a[i].Index != i {
			t.Errorf("scenario %d: index %d", i, a[i].Index)
		}
		if seen[a[i].ID] {
			t.Errorf("duplicate scenario ID %s", a[i].ID)
		}
		seen[a[i].ID] = true
	}
	// Seed is the rightmost (fastest-varying) axis.
	if a[0].Seed != 1 || a[1].Seed != 2 || a[0].Defense != a[1].Defense {
		t.Errorf("axis order: %+v then %+v", a[0], a[1])
	}
	// Schedule is the leftmost (slowest-varying) axis.
	if a[0].Schedule != "nov2015" || a[7].Schedule != "june2016" {
		t.Errorf("schedule order: %s ... %s", a[0].Schedule, a[7].Schedule)
	}
}

func TestSpecDigest(t *testing.T) {
	s1, _ := ParseSpec([]byte(`{"name":"a"}`))
	s2, _ := ParseSpec([]byte(`{"name":"a"}`))
	s3, _ := ParseSpec([]byte(`{"name":"a","axes":{"seeds":[2]}}`))
	if s1.Digest() != s2.Digest() {
		t.Error("same spec, different digests")
	}
	if s1.Digest() == s3.Digest() {
		t.Error("different specs, same digest")
	}
	if len(s1.Digest()) != 64 {
		t.Errorf("digest %q not sha256 hex", s1.Digest())
	}
}

func TestBuildScheduleTransforms(t *testing.T) {
	base := Scenario{Schedule: "nov2015", Intensity: 1, DurationScale: 1, Target: "paper"}
	ref, err := base.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}

	hot := base
	hot.Intensity = 2.5
	hs, err := hot.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Events {
		if want := ref.Events[i].PerLetterQPS * 2.5; hs.Events[i].PerLetterQPS != want {
			t.Errorf("event %d: qps %v, want %v", i, hs.Events[i].PerLetterQPS, want)
		}
	}

	long := base
	long.DurationScale = 2
	ls, err := long.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Events {
		if ls.Events[i].StartMinute != ref.Events[i].StartMinute {
			t.Errorf("event %d: start moved", i)
		}
		if want := ref.Events[i].Duration() * 2; ls.Events[i].Duration() != want {
			t.Errorf("event %d: duration %d, want %d", i, ls.Events[i].Duration(), want)
		}
	}

	all := base
	all.Target = "all"
	as, err := all.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(as.Spared) != 0 {
		t.Errorf("target all spared %v", as.Spared)
	}

	spare := base
	spare.Target = "spare:AB"
	ss, err := spare.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Spared['A'] || !ss.Spared['B'] || len(ss.Spared) != 2 {
		t.Errorf("spare:AB spared %v", ss.Spared)
	}
}

func TestEngineConfig(t *testing.T) {
	sc := Scenario{
		Schedule: "nov2015", Intensity: 1, DurationScale: 1, Target: "paper",
		Defense: "withdraw", Faults: "random:7:light", Seed: 3,
		VPs: 50, Minutes: 100, BotnetOrigins: 10, Workers: 2,
		Topology: &TopologySpec{Tier1s: 3, Tier2s: 10, Stubs: 50},
	}
	cfg, opts, err := sc.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 3 || cfg.VPs != 50 || cfg.Minutes != 100 {
		t.Errorf("config: %+v", cfg)
	}
	if cfg.ForcePolicy == nil || *cfg.ForcePolicy != anycast.Withdraw {
		t.Errorf("ForcePolicy = %v", cfg.ForcePolicy)
	}
	if cfg.Topology == nil || cfg.Topology.Stubs != 50 || cfg.Topology.Seed != 3 {
		t.Errorf("topology: %+v", cfg.Topology)
	}
	// workers + schedule + faults
	if len(opts) != 3 {
		t.Errorf("got %d options, want 3 (workers, schedule, faults)", len(opts))
	}
}

func TestScenarioIDShape(t *testing.T) {
	s, _ := ParseSpec([]byte(`{"name":"x"}`))
	id := s.Expand()[0].ID
	if !strings.HasPrefix(id, "s000-nov2015-default-seed1-") {
		t.Errorf("ID %q has unexpected shape", id)
	}
}

// TestAdaptiveDefense: the defenses axis accepts adaptive, which resolves to
// ForcePolicy Adaptive, and an unknown defense names all four values.
func TestAdaptiveDefense(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"x","axes":{"defenses":["adaptive"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	scs := s.Expand()
	if len(scs) != 1 || scs[0].Defense != "adaptive" || !strings.Contains(scs[0].ID, "-adaptive-") {
		t.Fatalf("expanded %+v", scs)
	}
	cfg, _, err := scs[0].EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ForcePolicy == nil || *cfg.ForcePolicy != anycast.Adaptive {
		t.Errorf("ForcePolicy = %v, want adaptive", cfg.ForcePolicy)
	}

	_, err = ParseSpec([]byte(`{"axes":{"defenses":["surrender"]}}`))
	if err == nil {
		t.Fatal("unknown defense accepted")
	}
	for _, d := range []string{"default", "absorb", "withdraw", "adaptive"} {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q does not list %s", err, d)
		}
	}
}
