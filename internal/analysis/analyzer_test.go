package analysis

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
)

// TestSharedSeriesMatchPerSiteScans pins the figures built on the
// Analyzer's one-pass catchment series to the dataset's per-site scan:
// Figure 5's medians and swings, Figure 14's series and Table 2's observed
// site count are the values a scan per site gives.
func TestSharedSeriesMatchPerSiteScans(t *testing.T) {
	ev, d := getShared(t)
	an := New(ev, d)
	for _, lb := range []byte{'E', 'K', 'D'} {
		rows, err := an.Figure5(lb)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(ev.LetterSites(lb)) {
			t.Fatalf("%c: %d Figure 5 rows for %d sites", lb, len(rows), len(ev.LetterSites(lb)))
		}
		for _, r := range rows {
			s, err := d.SiteSeries(lb, r.SiteIndex)
			if err != nil {
				t.Fatal(err)
			}
			med := s.Median()
			min, _, _ := s.Min()
			max, _, _ := s.Max()
			wantMin, wantMax := 0.0, 0.0
			if med > 0 {
				wantMin, wantMax = min/med, max/med
			}
			if r.MedianVPs != med || r.MinNorm != wantMin || r.MaxNorm != wantMax {
				t.Errorf("%s: median/min/max = %v/%v/%v, per-site scan gives %v/%v/%v",
					r.Site, r.MedianVPs, r.MinNorm, r.MaxNorm, med, wantMin, wantMax)
			}
		}
	}
	sites, err := an.Figure14('D', 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sites {
		s, err := d.SiteSeries('D', f.SiteIndex)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.Series, s) {
			t.Errorf("%s: Figure 14 series differs from the per-site scan", f.Site)
		}
	}
	for _, row := range an.Table2() {
		seen := map[int16]bool{}
		rows, err := d.Rows(row.Letter)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			status, site := rows.Status(), rows.Site()
			for b, st := range status {
				if st == atlas.OK && site[b] >= 0 {
					seen[site[b]] = true
				}
			}
		}
		if row.SitesObserved != len(seen) {
			t.Errorf("%c: Table 2 observes %d sites, a cell scan %d", row.Letter, row.SitesObserved, len(seen))
		}
	}
}

// TestAnalyzerResultsAreCallerOwned: the series an Analyzer shares between
// figures never leak — scribbling over one call's result leaves the next
// call's (and every other figure's) untouched.
func TestAnalyzerResultsAreCallerOwned(t *testing.T) {
	ev, d := getShared(t)
	an := New(ev, d)
	dnsmon, err := an.DNSMON()
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := an.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := an.Figure6('K')
	if err != nil {
		t.Fatal(err)
	}
	fig14, err := an.Figure14('D', 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig4 {
		for i := range s.Values {
			s.Values[i] = math.NaN()
		}
	}
	for _, f := range fig6 {
		for i := range f.Norm.Values {
			f.Norm.Values[i] = -1
		}
	}
	for _, f := range fig14 {
		for i := range f.Series.Values {
			f.Series.Values[i] = -1
		}
	}
	fresh := New(ev, d)
	wantFig4, _ := fresh.Figure4()
	wantFig5, _ := fresh.Figure5('K')
	wantFig14, _ := fresh.Figure14('D', 0)
	wantDNSMON, _ := fresh.DNSMON()
	gotFig4, _ := an.Figure4()
	gotFig5, _ := an.Figure5('K')
	gotFig14, _ := an.Figure14('D', 0)
	gotDNSMON, _ := an.DNSMON()
	if !reflect.DeepEqual(gotFig4, wantFig4) || !reflect.DeepEqual(gotFig5, wantFig5) ||
		!reflect.DeepEqual(gotFig14, wantFig14) || !reflect.DeepEqual(gotDNSMON, wantDNSMON) ||
		!reflect.DeepEqual(gotDNSMON, dnsmon) {
		t.Error("modifying a returned series changed what the Analyzer computes next")
	}
}

// TestAnalyzerConcurrentUse calls the methods that share series from many
// goroutines at once on one fresh Analyzer; every caller must get the
// sequential answer (and the race detector must stay quiet).
func TestAnalyzerConcurrentUse(t *testing.T) {
	ev, d := getShared(t)
	seq := New(ev, d)
	wantFig4, _ := seq.Figure4()
	wantFig6, _ := seq.Figure6('K')
	wantDNSMON, _ := seq.DNSMON()
	wantTable2 := seq.Table2()

	an := New(ev, d)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if got, err := an.Figure4(); err != nil || !reflect.DeepEqual(got, wantFig4) {
					t.Errorf("concurrent Figure4 differs (err %v)", err)
				}
			case 1:
				if got, err := an.Figure6('K'); err != nil || !reflect.DeepEqual(got, wantFig6) {
					t.Errorf("concurrent Figure6 differs (err %v)", err)
				}
			case 2:
				if got, err := an.DNSMON(); err != nil || !reflect.DeepEqual(got, wantDNSMON) {
					t.Errorf("concurrent DNSMON differs (err %v)", err)
				}
			case 3:
				if got := an.Table2(); !reflect.DeepEqual(got, wantTable2) {
					t.Error("concurrent Table2 differs")
				}
			}
		}(g)
	}
	wg.Wait()
}
