package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/resolver"
)

// TestOutcomeGolden pins what a grid scenario computes, byte for byte: the
// SHA-256 of the canonical Outcome JSON (user-impact experiment included)
// for six scenarios of bench/campaign_grid.json at seed 7 and the grid's
// default scale, and of one full UserImpact result. A change that claims to
// leave every output unchanged (a faster replay of steady minutes, a
// resolver cache keyed differently) must leave these hashes alone; a change
// that moves them on purpose updates the table and says why.
func TestOutcomeGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "campaign_grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	spec.Axes.Seeds = []int64{7}
	type cell struct {
		schedule  string
		intensity float64
		defense   string
		faults    string
		outcome   string // SHA-256 of json.Marshal(Outcome)
	}
	cells := []cell{
		{"nov2015", 1, "default", "none", "7f79a72ab20240f0697f89166171a6dd3d89acd091fca667f8a57a95bd7743d8"},
		{"nov2015", 1, "withdraw", "random:3:heavy", "08846726e48bae06b7b028024572b367d27d2d84e90c42570cb50ea205e07376"},
		{"nov2015", 2, "withdraw", "none", "d81c8f1d0bff88675ebfa1010e704e8552afc55bf6e9067da2a0e355968e14b8"},
		{"nov2015", 0.5, "absorb", "random:3:heavy", "802074691ff3e6e5a857c5145642636f634481bd8c7ad4452a16653998cd339b"},
		// june2016's event starts at minute 600, past the grid's horizon:
		// these two are the grid's quiet runs, with and without faults.
		{"june2016", 0.5, "default", "random:3:heavy", "2f11562c24c8b37584bd860e784d5f1443dcf28ed6953afe7e79c7cdc00f54c8"},
		{"june2016", 1, "absorb", "none", "b1038ce7340789f2492a699c674ef10dfac1f7f69768b434e9fc9a525ee2fc4f"},
	}
	// SHA-256 of json.Marshal(UserImpact(DefaultUserImpactConfig(7))) on
	// the first cell.
	const userImpact = "d758f1bebc994ac0d895e4a944aa03765e80071b1ff1aee39fecdc1e547315a3"
	// SHA-256 of the Results of one uncaching resolver whose letters are
	// not in byte order, through the first cell's Upstream. UserImpact
	// configures the 13 letters in byte order, where ties broken by
	// configured position and by letter byte coincide; here they differ.
	const reversedResolver = "825bcebd65bfd7600ae5565ad937aaefb8282c257f81e830136b028ca58bd304"

	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	scenarios := spec.Expand()
	for ci, c := range cells {
		var sc *Scenario
		for i := range scenarios {
			s := &scenarios[i]
			if s.Schedule == c.schedule && s.Intensity == c.intensity && s.Defense == c.defense && s.Faults == c.faults {
				sc = s
			}
		}
		if sc == nil {
			t.Fatalf("no grid scenario %s/%v/%s/%s", c.schedule, c.intensity, c.defense, c.faults)
		}
		cfg, opts, err := sc.EngineConfig()
		if err != nil {
			t.Fatal(err)
		}
		ev, err := core.NewEvaluator(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Run(); err != nil {
			t.Fatal(err)
		}
		d, err := ev.Measure()
		if err != nil {
			t.Fatal(err)
		}
		a := analysis.New(ev, d)
		out, err := a.Outcome(analysis.DefaultOutcomeConfig(sc.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if out.User == nil {
			t.Fatalf("%s: outcome has no user-impact section", sc.ID)
		}
		if got := digest(out); got != c.outcome {
			t.Errorf("%s: outcome digest %s, golden %s", sc.ID, got, c.outcome)
		}
		if ci == 0 {
			ui, err := a.UserImpact(analysis.DefaultUserImpactConfig(7))
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(ui); got != userImpact {
				t.Errorf("%s: user-impact digest %s, golden %s", sc.ID, got, userImpact)
			}
			if got := digest(reversedResults(t, ev)); got != reversedResolver {
				t.Errorf("%s: reversed-letter resolver digest %s, golden %s", sc.ID, got, reversedResolver)
			}
		}
	}
}

// reversedResults runs 4 000 queries for 150 names through a resolver with
// letters M..A and no caching, from the first stub AS, across the run.
func reversedResults(t *testing.T, ev *core.Evaluator) []resolver.Result {
	t.Helper()
	cfg := resolver.DefaultConfig(7)
	cfg.Letters = []byte("MLKJIHGFEDCBA")
	cfg.CacheTTLMinutes = 0
	r, err := resolver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up, err := ev.Upstream(ev.Graph.StubASNs()[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	out := make([]resolver.Result, n)
	for q := range out {
		out[q] = r.Resolve(q*7919%150, q*ev.Cfg.Minutes/n, up)
	}
	return out
}
