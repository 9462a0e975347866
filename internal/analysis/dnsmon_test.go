package analysis

import (
	"testing"

	"github.com/rootevent/anycastddos/internal/attack"
)

func TestDNSMONTable(t *testing.T) {
	ev, d := getShared(t)
	rows, err := New(ev, d).DNSMON()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 13 letters minus A
		t.Fatalf("rows = %d", len(rows))
	}
	byLetter := map[byte]DNSMONRow{}
	for _, r := range rows {
		byLetter[r.Letter] = r
		if r.OverallOKPct <= 0 || r.OverallOKPct > 100 {
			t.Errorf("%c overall = %v", r.Letter, r.OverallOKPct)
		}
		if r.EventOKPct > r.OverallOKPct+1e-9 {
			t.Errorf("%c event availability %v above overall %v", r.Letter, r.EventOKPct, r.OverallOKPct)
		}
		if r.WorstBinPct > r.EventOKPct+1e-9 {
			t.Errorf("%c worst bin %v above event mean %v", r.Letter, r.WorstBinPct, r.EventOKPct)
		}
	}
	// The unicast letter suffers more during events than the unattacked
	// site-rich letter.
	if byLetter['B'].EventOKPct >= byLetter['L'].EventOKPct {
		t.Errorf("B event %v >= L event %v", byLetter['B'].EventOKPct, byLetter['L'].EventOKPct)
	}
	// H's event RTT p90 reflects the coast flip to its backup site (the
	// most reliable RTT signature in the deployment); K's absorbers may
	// or may not dominate K's letter-wide median at small scales.
	if byLetter['H'].EventRTTp90ms <= byLetter['H'].MedianRTTms*1.5 {
		t.Errorf("H event p90 RTT %v not well above median %v", byLetter['H'].EventRTTp90ms, byLetter['H'].MedianRTTms)
	}
}

func TestDetectEventsRecoversWindows(t *testing.T) {
	ev, d := getShared(t)
	windows, err := New(ev, d).DetectEvents(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) == 0 {
		t.Fatal("no events detected")
	}
	matched, spurious, missed := MatchesKnownEvents(windows, ev.Schedule())
	if matched != 2 {
		t.Errorf("matched %d of 2 events (windows: %+v)", matched, windows)
	}
	if missed != 0 {
		t.Errorf("missed %d events", missed)
	}
	if spurious > 1 {
		t.Errorf("%d spurious windows", spurious)
	}
	// Detected windows overlap the true ones within a couple of bins.
	ev1 := attack.Events()[0]
	found := false
	for _, w := range windows {
		if w.StartMinute <= ev1.StartMinute+20 && w.EndMinute >= ev1.EndMinute-20 {
			found = true
			if len(w.Letters) < 3 {
				t.Errorf("window letters = %s", string(w.Letters))
			}
		}
	}
	if !found {
		t.Errorf("no window covers event 1: %+v", windows)
	}
}

func TestDetectEventsParamValidation(t *testing.T) {
	ev, d := getShared(t)
	for _, tt := range []struct {
		drop float64
		min  int
	}{{0, 3}, {1, 3}, {0.5, 0}} {
		if _, err := New(ev, d).DetectEvents(tt.drop, tt.min); err == nil {
			t.Errorf("drop=%v min=%d accepted", tt.drop, tt.min)
		}
	}
}
