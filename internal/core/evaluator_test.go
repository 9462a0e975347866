package core

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/topo"
)

// smallConfig keeps evaluator tests fast: a few hundred ASes and VPs over
// the full two days.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Topology = &topo.Config{Tier1s: 6, Tier2s: 60, Stubs: 700, Seed: seed}
	cfg.VPs = 400
	cfg.BotnetOrigins = 30
	return cfg
}

// sharedEval caches one small evaluator run across tests in this package.
var sharedEval *Evaluator
var sharedData *atlas.Dataset

func getShared(t *testing.T) (*Evaluator, *atlas.Dataset) {
	t.Helper()
	if sharedEval != nil {
		return sharedEval, sharedData
	}
	ev, err := NewEvaluator(smallConfig(11))
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
	sharedEval, sharedData = ev, d
	return ev, d
}

func TestEvaluatorConstruction(t *testing.T) {
	ev, _ := getShared(t)
	sites := 0
	for _, l := range ev.Deployment.Letters {
		sites += len(l.Sites)
	}
	if sites < 300 {
		t.Errorf("deployment has %d sites", sites)
	}
	if ev.Collector.NumPeers() != 152 {
		t.Errorf("collectors = %d", ev.Collector.NumPeers())
	}
	if got := ev.Population.N(); got != 400 {
		t.Errorf("population = %d", got)
	}
	if err := ev.Deployment.Validate(true); err != nil {
		t.Error(err)
	}
}

func TestRunOnlyOnce(t *testing.T) {
	ev, _ := getShared(t)
	if err := ev.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestMeasureRequiresRun(t *testing.T) {
	ev, err := NewEvaluator(smallConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Measure(); err == nil {
		t.Error("Measure before Run should fail")
	}
}

func TestAttackedLettersLoseReachability(t *testing.T) {
	_, d := getShared(t)
	ev1 := attack.Events()[0]
	evBin := (ev1.StartMinute + ev1.Duration()/2) / 10

	for _, letter := range []byte{'B', 'H', 'K'} {
		s, err := d.SuccessSeries(letter)
		if err != nil {
			t.Fatal(err)
		}
		pre := s.Values[20] // minute 200, pre-event
		during := s.Values[evBin]
		if pre == 0 {
			t.Fatalf("%c: no successes pre-event", letter)
		}
		if during >= pre*0.9 {
			t.Errorf("%c: success %v -> %v during attack; expected visible loss", letter, pre, during)
		}
	}
	// Unattacked letters stay (nearly) intact: D, L, M (Figure 3).
	for _, letter := range []byte{'L', 'M'} {
		s, err := d.SuccessSeries(letter)
		if err != nil {
			t.Fatal(err)
		}
		pre := s.Values[20]
		during := s.Values[evBin]
		if during < pre*0.85 {
			t.Errorf("%c: unattacked letter dropped %v -> %v", letter, pre, during)
		}
	}
}

func TestUnicastBSuffersMost(t *testing.T) {
	_, d := getShared(t)
	ev1 := attack.Events()[0]
	evBin := (ev1.StartMinute + ev1.Duration()/2) / 10
	relDrop := func(letter byte) float64 {
		s, err := d.SuccessSeries(letter)
		if err != nil {
			t.Fatal(err)
		}
		pre := s.Median()
		if pre == 0 {
			return 0
		}
		return s.Values[evBin] / pre
	}
	b := relDrop('B')
	k := relDrop('K')
	if b >= k {
		t.Errorf("B (unicast) retained %.2f, K retained %.2f; B should suffer more", b, k)
	}
}

func TestSiteFlipsToKAMS(t *testing.T) {
	// K-LHR's catchment must shift toward K-AMS during the first event
	// (Figure 10): site 0 is K-AMS, site 1 K-LHR in our deployment.
	ev, d := getShared(t)
	k, _ := ev.Deployment.Letter('K')
	if k.Sites[0].Code != "AMS" || k.Sites[1].Code != "LHR" {
		t.Fatalf("unexpected K site order: %s %s", k.Sites[0].Code, k.Sites[1].Code)
	}
	ams, err := d.SiteSeries('K', 0)
	if err != nil {
		t.Fatal(err)
	}
	ev1 := attack.Events()[0]
	evBin := (ev1.StartMinute + ev1.Duration()/2) / 10
	preAMS := ams.Values[20]
	durAMS := ams.Values[evBin]
	// AMS should not collapse; it absorbs (some loss allowed).
	if durAMS == 0 && preAMS > 0 {
		t.Error("K-AMS lost its whole catchment; absorb policy broken")
	}
}

func TestRSSACReportsProduced(t *testing.T) {
	ev, _ := getShared(t)
	reports := ev.RSSACReports('K')
	if len(reports) != 2 {
		t.Fatalf("K reports = %d", len(reports))
	}
	day0 := reports[0]
	if day0.Queries <= 0 || day0.Responses <= 0 {
		t.Errorf("day0 = %+v", day0)
	}
	// Attack day has more queries than a quiet letter-day baseline and
	// fewer responses than queries (RRL).
	if day0.Responses >= day0.Queries {
		t.Errorf("responses %g >= queries %g on attack day", day0.Responses, day0.Queries)
	}
	if day0.UniqueSources < 10_000_000 {
		t.Errorf("unique sources = %g, want explosion", day0.UniqueSources)
	}
	// Unattacked L sees retry (failover) load during events: queries
	// above its own normal level but no attack-size bin spike.
	l := ev.RSSACReports('L')
	lNormal := 60_000.0 * 86400
	if l[0].Queries <= lNormal {
		t.Errorf("L day0 queries = %g, want > %g (letter flips)", l[0].Queries, lNormal)
	}
	if l[0].UniqueSources <= 2_900_000 {
		t.Error("L unique sources should increase from failover resolvers")
	}
}

func TestBGPUpdatesBurstDuringEvents(t *testing.T) {
	ev, _ := getShared(t)
	// Across all letters, the event windows should contain far more
	// route changes than quiet periods (Figure 9).
	inEvent, outEvent := 0.0, 0.0
	inBins, outBins := 0, 0
	nov := attack.Nov2015Schedule()
	for _, lb := range ev.Deployment.SortedLetters() {
		s := ev.Collector.UpdateSeries(lb, 0, 10, ev.Cfg.Minutes/10)
		for b, v := range s.Values {
			minute := b * 10
			if nov.Active(minute) >= 0 || nov.Active(minute-30) >= 0 {
				inEvent += v
				inBins++
			} else {
				outEvent += v
				outBins++
			}
		}
	}
	if inBins == 0 || outBins == 0 {
		t.Fatal("bad binning")
	}
	inRate := inEvent / float64(inBins)
	outRate := outEvent / float64(outBins)
	if inRate <= outRate {
		t.Errorf("BGP update rate in events %.2f <= outside %.2f", inRate, outRate)
	}
}

func TestCollateralDamageNL(t *testing.T) {
	ev, _ := getShared(t)
	if len(ev.NLSeries) != 2 {
		t.Fatalf("nl series = %d", len(ev.NLSeries))
	}
	ev1 := attack.Events()[0]
	evBin := (ev1.StartMinute + ev1.Duration()/2) / 10
	for i, s := range ev.NLSeries {
		pre := s.Values[20]
		during := s.Values[evBin]
		if pre < 0.99 {
			t.Errorf("nl site %d pre-event service = %v, want ~1", i, pre)
		}
		if during > 0.5 {
			t.Errorf("nl site %d served %v during event, want collapse (Figure 15)", i, during)
		}
	}
}

func TestSiteRouteSeries(t *testing.T) {
	ev, _ := getShared(t)
	s, err := siteRouteSeries(ev, 'K', 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Values[0] != 1 {
		t.Errorf("K-AMS route at start = %v", s.Values[0])
	}
	if _, err := siteRouteSeries(ev, 'Z', 0); err == nil {
		t.Error("unknown letter should error")
	}
	if _, err := siteRouteSeries(ev, 'K', 999); err == nil {
		t.Error("unknown site should error")
	}
}

func TestLetterServedSeries(t *testing.T) {
	ev, _ := getShared(t)
	legit, attackQ, retry, resp, err := ev.LetterServedSeries('L')
	if err != nil {
		t.Fatal(err)
	}
	if len(legit) != ev.Cfg.Minutes || len(resp) != ev.Cfg.Minutes {
		t.Fatal("series length mismatch")
	}
	// L is not attacked: no attack traffic ever.
	for m, v := range attackQ {
		if v != 0 {
			t.Fatalf("L attack served at minute %d = %v", m, v)
		}
	}
	// Retry load appears only during events.
	evMid := attack.Event1Start + 60
	if retry[evMid] <= 0 {
		t.Error("no retry load at L mid-event")
	}
	if retry[100] != 0 {
		t.Error("retry load outside events")
	}
	if _, _, _, _, err := ev.LetterServedSeries('Z'); err == nil {
		t.Error("unknown letter should error")
	}
}

func TestProbeOutcomeDeterministic(t *testing.T) {
	ev, _ := getShared(t)
	vp := &ev.Population.VPs[5]
	o1 := ev.ProbeOutcome(vp, 'K', 500)
	o2 := ev.ProbeOutcome(vp, 'K', 500)
	if o1 != o2 {
		t.Errorf("probe not deterministic: %+v vs %+v", o1, o2)
	}
}

func TestHijackedVPsDetected(t *testing.T) {
	ev, d := getShared(t)
	hijacked := 0
	for _, vp := range ev.Population.VPs {
		if vp.Hijacked {
			hijacked++
			if !d.Excluded[vp.ID] {
				t.Errorf("hijacked VP %d not excluded", vp.ID)
			} else if d.ExcludedReason[vp.ID] != "hijack" {
				t.Errorf("VP %d reason = %q", vp.ID, d.ExcludedReason[vp.ID])
			}
		}
	}
	if hijacked == 0 {
		t.Skip("no hijacked VPs in this sample")
	}
}

func TestJune2016Schedule(t *testing.T) {
	// The follow-up event (§2.3 "Generalizing"): one longer window, every
	// letter targeted. The same machinery must reproduce the same
	// operational dynamics.
	ev, err := NewEvaluator(smallConfig(77), WithSchedule(attack.June2016Schedule()))
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
	e := ev.Schedule().Events[0]
	evBin := (e.StartMinute + e.Duration()/2) / 10
	// Previously-spared letters now dip too (M has only 6 sites).
	m, err := d.SuccessSeries('M')
	if err != nil {
		t.Fatal(err)
	}
	if m.Values[evBin] >= m.Median()*0.95 {
		t.Errorf("M not affected in june2016: %v vs median %v", m.Values[evBin], m.Median())
	}
	// Nothing happens during the Nov-2015 windows (different schedule).
	b, err := d.SuccessSeries('B')
	if err != nil {
		t.Fatal(err)
	}
	novBin := (410 + 80) / 10
	if b.Values[novBin] < b.Median()*0.95 {
		t.Errorf("B dipped during the wrong (nov2015) window: %v vs %v", b.Values[novBin], b.Median())
	}
	if b.Values[evBin] >= b.Median()*0.8 {
		t.Errorf("B not affected during june2016 window: %v vs %v", b.Values[evBin], b.Median())
	}
}
