package analysis

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/attack"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/topo"
)

var (
	sharedEval *core.Evaluator
	sharedData *atlas.Dataset
)

func getShared(t *testing.T) (*core.Evaluator, *atlas.Dataset) {
	t.Helper()
	if sharedEval != nil {
		return sharedEval, sharedData
	}
	cfg := core.DefaultConfig(21)
	cfg.Topology = &topo.Config{Tier1s: 6, Tier2s: 60, Stubs: 800, Seed: 21}
	cfg.VPs = 500
	cfg.BotnetOrigins = 30
	ev, err := core.NewEvaluator(cfg)
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

func TestTable2(t *testing.T) {
	ev, d := getShared(t)
	rows := New(ev, d).Table2()
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLetter := map[byte]Table2Row{}
	for _, r := range rows {
		byLetter[r.Letter] = r
		if r.SitesObserved > r.SitesReported {
			t.Errorf("%c observed %d > reported %d", r.Letter, r.SitesObserved, r.SitesReported)
		}
		if r.GlobalReported+r.LocalReported != r.SitesReported {
			t.Errorf("%c global+local != total", r.Letter)
		}
	}
	if !byLetter['B'].Unicast || byLetter['B'].SitesReported != 1 {
		t.Error("B row wrong")
	}
	if !byLetter['H'].PrimaryBackup {
		t.Error("H row wrong")
	}
	// Big letters must be observed at multiple sites.
	if byLetter['K'].SitesObserved < 3 {
		t.Errorf("K observed %d sites", byLetter['K'].SitesObserved)
	}
	// Observed <= reported, and local-heavy letters observed fewer
	// (local sites have tiny catchments) — E's 11 local sites rarely all
	// visible.
	if byLetter['E'].SitesObserved == byLetter['E'].SitesReported {
		t.Logf("E observed all %d sites (possible at this scale)", byLetter['E'].SitesObserved)
	}
}

func TestTable3(t *testing.T) {
	ev, _ := getShared(t)
	for evIdx := 0; evIdx < 2; evIdx++ {
		res, err := New(ev, nil).Table3(evIdx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("event %d rows = %d, want 5 (A,H,J,K,L)", evIdx, len(res.Rows))
		}
		var aRow, lRow *Table3Row
		for i := range res.Rows {
			switch res.Rows[i].Letter {
			case 'A':
				aRow = &res.Rows[i]
			case 'L':
				lRow = &res.Rows[i]
			}
		}
		if aRow == nil || lRow == nil {
			t.Fatal("missing A or L row")
		}
		// Attacked letters show query deltas; unique-IP ratios explode.
		if aRow.DeltaQueryMqs <= 0 {
			t.Errorf("A delta = %v", aRow.DeltaQueryMqs)
		}
		if aRow.UniqueRatio < 10 {
			t.Errorf("A unique ratio = %v, want large", aRow.UniqueRatio)
		}
		if !lRow.Excluded {
			t.Error("L must be excluded from bounds (not attacked)")
		}
		// Bounds ordering: lower <= scaled <= upper.
		b := res.Bounds
		if b.LowerQueryMqs > b.ScaledQueryMqs || b.ScaledQueryMqs > b.UpperQueryMqs*1.001 {
			t.Errorf("bounds out of order: %v <= %v <= %v", b.LowerQueryMqs, b.ScaledQueryMqs, b.UpperQueryMqs)
		}
		// Upper bound is 10x A's per-letter rate; with served-based
		// under-measurement it lands in the tens of Mq/s like the paper.
		if b.UpperQueryMqs < 1 {
			t.Errorf("upper bound = %v Mq/s, implausibly small", b.UpperQueryMqs)
		}
		// Responses below queries (RRL).
		if aRow.DeltaRespMqs > aRow.DeltaQueryMqs {
			t.Errorf("A responses %v > queries %v", aRow.DeltaRespMqs, aRow.DeltaQueryMqs)
		}
	}
	if _, err := New(ev, nil).Table3(5); err == nil {
		t.Error("bad event index should error")
	}
}

func TestFigure3(t *testing.T) {
	ev, d := getShared(t)
	series, err := New(ev, d).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 13 {
		t.Fatalf("letters = %d", len(series))
	}
	// Attacked letters dip during event 1; D/L/M stay flat-ish.
	evBin := (attack.Event1Start + 80) / 10
	for _, lb := range []byte{'B', 'H'} {
		s := series[lb]
		if s.Values[evBin] >= s.Median()*0.7 {
			t.Errorf("%c did not dip: %v vs median %v", lb, s.Values[evBin], s.Median())
		}
	}
	for _, lb := range []byte{'D', 'L', 'M'} {
		s := series[lb]
		if s.Median() == 0 {
			t.Fatalf("%c has empty series", lb)
		}
		if s.Values[evBin] < s.Median()*0.75 {
			t.Errorf("unattacked %c dipped hard: %v vs %v", lb, s.Values[evBin], s.Median())
		}
	}
}

func TestFigure4(t *testing.T) {
	ev, d := getShared(t)
	series, err := New(ev, d).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := series['A']; ok {
		t.Error("A should be omitted from RTT analysis")
	}
	// K's median RTT rises during events (absorbing sites bufferbloat).
	k := series['K']
	evBin := (attack.Event1Start + 80) / 10
	pre := k.Values[20]
	if k.Values[evBin] <= pre {
		t.Errorf("K RTT did not rise: %v -> %v", pre, k.Values[evBin])
	}
}

func TestFigure5And6(t *testing.T) {
	ev, d := getShared(t)
	for _, lb := range []byte{'E', 'K'} {
		rows, err := New(ev, d).Figure5(lb)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(ev.LetterSites(lb)) {
			t.Fatalf("%c rows = %d", lb, len(rows))
		}
		// Ordered by median descending.
		for i := 1; i < len(rows); i++ {
			if rows[i-1].MedianVPs < rows[i].MedianVPs {
				t.Fatalf("%c rows not ordered", lb)
			}
		}
		// Stable sites: min <= 1 <= max around the median.
		for _, r := range rows {
			if r.MedianVPs > 0 && (r.MinNorm > 1.0001 || r.MaxNorm < 0.9999) {
				t.Errorf("%s min/max norm %v/%v around median", r.Site, r.MinNorm, r.MaxNorm)
			}
		}
		minis, err := New(ev, d).Figure6(lb)
		if err != nil {
			t.Fatal(err)
		}
		if len(minis) != len(rows) {
			t.Fatalf("figure6 entries = %d", len(minis))
		}
	}
	// Some big K site must show critical bins or swings during events
	// (LHR's flaps) — check any site has critical moments.
	minis, _ := New(ev, d).Figure6('K')
	anyCritical := false
	for _, m := range minis {
		if m.MedianVPs >= StableVPThreshold && len(m.CriticalBins) > 0 {
			anyCritical = true
		}
	}
	if !anyCritical {
		t.Error("no stable K site shows critical reachability moments")
	}
	if _, err := New(ev, d).Figure5('Z'); err == nil {
		t.Error("unknown letter should error")
	}
	if _, err := New(ev, d).Figure6('Z'); err == nil {
		t.Error("unknown letter should error")
	}
}

func TestFigure7(t *testing.T) {
	ev, d := getShared(t)
	series, err := New(ev, d).Figure7('K', []string{"AMS", "NRT", "LHR", "FRA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	ams := series["K-AMS"]
	evBin := (attack.Event1Start + 80) / 10
	if ams.Values[evBin] <= ams.Values[20] {
		t.Errorf("K-AMS RTT flat during event: %v -> %v", ams.Values[20], ams.Values[evBin])
	}
	if _, err := New(ev, d).Figure7('K', []string{"XXX"}); err == nil {
		t.Error("unknown site should error")
	}
}

func TestFigure8(t *testing.T) {
	ev, d := getShared(t)
	flips, err := New(ev, d).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	k := flips['K']
	var inEvent, outEvent float64
	nov := attack.Nov2015Schedule()
	for b, v := range k.Values {
		if nov.Active(b*10) >= 0 {
			inEvent += v
		} else {
			outEvent += v
		}
	}
	if inEvent == 0 {
		t.Error("no K flips during events")
	}
	// Flip density much higher in events than in quiet times.
	inRate := inEvent / 22 // 22 event bins
	outRate := outEvent / float64(k.Bins()-22)
	if inRate <= outRate {
		t.Errorf("flip rate in events %.2f <= outside %.2f", inRate, outRate)
	}
}

func TestFigure9(t *testing.T) {
	ev, _ := getShared(t)
	series := New(ev, nil).Figure9()
	if len(series) != 13 {
		t.Fatalf("letters = %d", len(series))
	}
	// E (withdraw-heavy) must show route changes during events.
	var total float64
	for _, v := range series['E'].Values {
		total += v
	}
	if total == 0 {
		t.Error("E shows no BGP updates at collectors")
	}
}

func TestFigure10(t *testing.T) {
	ev, d := getShared(t)
	flows, err := New(ev, d).Figure10('K', []string{"LHR", "FRA"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	for _, f := range flows {
		if f.Movers == 0 {
			t.Logf("%s: no movers at this scale", f.FromSite)
			continue
		}
		var sum float64
		for _, frac := range f.Dest {
			sum += frac
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: dest fractions sum %v", f.FromSite, sum)
		}
	}
	if _, err := New(ev, d).Figure10('K', []string{"XXX"}, 0); err == nil {
		t.Error("unknown site should error")
	}
	if _, err := New(ev, d).Figure10('K', []string{"LHR"}, 7); err == nil {
		t.Error("bad event should error")
	}
}

func TestFigure11(t *testing.T) {
	ev, d := getShared(t)
	rows, err := New(ev, d).Figure11('K', "LHR", "FRA", "AMS", 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no raster rows; K-LHR/K-FRA catchments empty pre-event")
	}
	for _, r := range rows {
		if len(r.Cells) != d.RawBins {
			t.Fatalf("row width = %d", len(r.Cells))
		}
		for _, c := range r.Cells {
			switch c {
			case 'L', 'F', 'A', 'o', '.':
			default:
				t.Fatalf("bad raster cell %q", c)
			}
		}
	}
	if _, err := New(ev, d).Figure11('E', "AMS", "FRA", "LHR", 10); err == nil {
		t.Error("letter without raw data should error")
	}
}

func TestClassifyRaster(t *testing.T) {
	ev, d := getShared(t)
	rows, err := New(ev, d).Figure11('K', "LHR", "FRA", "AMS", 300)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := ClassifyRaster(rows, d, ev.Schedule(), 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range groups {
		total += n
	}
	if total != len(rows) {
		t.Fatalf("groups cover %d of %d rows (%v)", total, len(rows), groups)
	}
	// Some VPs must move during the event (§3.4.2 groups 2-4); whether
	// they return or stay depends on which uplink flapped at this seed.
	if groups[GroupFlipReturn]+groups[GroupFlipStay] == 0 {
		t.Errorf("no moving VPs: %v", groups)
	}
	if _, err := ClassifyRaster(rows, d, ev.Schedule(), 9); err == nil {
		t.Error("bad event index accepted")
	}
	// Group names render.
	for g := RasterGroup(0); g < 4; g++ {
		if g.String() == "" {
			t.Error("empty group name")
		}
	}
	if RasterGroup(9).String() != "RasterGroup(9)" {
		t.Error("unknown group name")
	}
}

func TestFigureServers(t *testing.T) {
	ev, d := getShared(t)
	for _, code := range []string{"FRA", "NRT"} {
		series, err := New(ev, d).FigureServers('K', code)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != 3 {
			t.Fatalf("K-%s servers = %d", code, len(series))
		}
		var total float64
		for _, ss := range series {
			for _, v := range ss.Success.Values {
				total += v
			}
		}
		if total == 0 {
			t.Errorf("K-%s: no per-server successes", code)
		}
	}
	if _, err := New(ev, d).FigureServers('E', "AMS"); err == nil {
		t.Error("no-raw letter should error")
	}
	if _, err := New(ev, d).FigureServers('K', "XXX"); err == nil {
		t.Error("unknown site should error")
	}
}

func TestFigure14And15(t *testing.T) {
	ev, d := getShared(t)
	// D-Root: not attacked; any reported dips are collateral.
	sites, err := New(ev, d).Figure14('D', 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if s.MedianVPs < StableVPThreshold {
			t.Errorf("%s below stability threshold reported", s.Site)
		}
		if s.DipFrac < 0.10 {
			t.Errorf("%s dip %v below cutoff", s.Site, s.DipFrac)
		}
	}
	nl := New(ev, nil).Figure15()
	if len(nl) == 0 {
		t.Fatal("no .nl series")
	}
	for _, s := range nl {
		if s.Median() < 0.9 {
			t.Errorf(".nl %s baseline service %v, want ~1", s.Name, s.Median())
		}
		min, _, _ := s.Min()
		if min > 0.5 {
			t.Errorf(".nl %s never collapsed (min %v)", s.Name, min)
		}
	}
}

func TestSiteCorrelation(t *testing.T) {
	ev, d := getShared(t)
	res, err := New(ev, d).SiteCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Letters) < 10 {
		t.Fatalf("letters in correlation = %d", len(res.Letters))
	}
	// More sites help worst-case reachability: positive slope, meaningful
	// correlation (the paper reports R² = 0.87; shape, not the exact
	// value, must hold).
	if res.Fit.Slope <= 0 {
		t.Errorf("slope = %v, want positive", res.Fit.Slope)
	}
	if res.Fit.R2 < 0.2 {
		t.Errorf("R² = %v, want meaningful correlation", res.Fit.R2)
	}
}

func TestLetterFlips(t *testing.T) {
	ev, _ := getShared(t)
	res, err := New(ev, nil).LetterFlips('L')
	if err != nil {
		t.Fatal(err)
	}
	if res.IncreaseRatio <= 1 {
		t.Errorf("L increase ratio = %v, want > 1 (letter flips)", res.IncreaseRatio)
	}
	if res.Event2Ratio <= 1 {
		t.Errorf("L event-2 ratio = %v, want > 1 (paper: 1.66x)", res.Event2Ratio)
	}
	if _, err := New(ev, nil).LetterFlips('Z'); err == nil {
		t.Error("unknown letter should error")
	}
}
