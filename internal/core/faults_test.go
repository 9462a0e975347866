package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/faults"
)

// Fault windows below sit in the quiet stretch between the paper's two
// attack events, so the observed effects are attributable to the injected
// fault alone.

func TestSiteOutageWithdrawsRoutes(t *testing.T) {
	plan := &faults.Plan{Name: "K0 out", Events: []faults.Event{
		{Kind: faults.SiteOutage, Start: 100, Duration: 200, Letter: 'K', Site: 0, Severity: 1},
	}}
	ev, err := NewEvaluator(tinyConfig(1), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	s, err := siteRouteSeries(ev, 'K', 0)
	if err != nil {
		t.Fatal(err)
	}
	// Routes are binned at 10 minutes: the site must be fully down for
	// bins [10, 30) and up on both sides of the window.
	for b := 10; b < 30; b++ {
		if s.Values[b] != 0 {
			t.Errorf("bin %d: route fraction %v during outage, want 0", b, s.Values[b])
		}
	}
	if s.Values[5] != 1 || s.Values[35] != 1 {
		t.Errorf("route fraction before/after outage = %v, %v; want 1, 1",
			s.Values[5], s.Values[35])
	}
}

func TestMonitorGapRecordsMissingMinutes(t *testing.T) {
	plan := &faults.Plan{Name: "K gap", Events: []faults.Event{
		{Kind: faults.MonitorGap, Start: 0, Duration: 137, Letter: 'K', Site: faults.AnySite},
	}}
	ev, err := NewEvaluator(tinyConfig(1), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	reports := ev.RSSACReports('K')
	if len(reports) < 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	if reports[0].MissingMinutes != 137 || reports[1].MissingMinutes != 0 {
		t.Fatalf("missing minutes = %d, %d; want 137, 0",
			reports[0].MissingMinutes, reports[1].MissingMinutes)
	}
	// The coverage correction must inflate the gapped day's estimate.
	if reports[0].EstimatedQueries() <= reports[0].Queries {
		t.Error("estimated queries should exceed raw queries on a gapped day")
	}
}

func TestVPChurnLeavesDatasetGaps(t *testing.T) {
	plan := &faults.Plan{Name: "all VPs out", Events: []faults.Event{
		{Kind: faults.VPChurn, Start: 1000, Duration: 200,
			Letter: faults.AnyLetter, Site: faults.AnySite, Severity: 1},
	}}
	ev, err := NewEvaluator(tinyConfig(1), WithFaults(plan))
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
	s, err := d.SuccessSeries('K')
	if err != nil {
		t.Fatal(err)
	}
	// At severity 1 every probe in the window returns NoData, which atlas
	// never records: the bins stay empty instead of reading as timeouts.
	for b := 100; b < 120; b++ {
		if s.Values[b] != 0 {
			t.Errorf("bin %d: %v VPs succeeded during total churn, want 0", b, s.Values[b])
		}
	}
	if s.Values[90] == 0 || s.Values[125] == 0 {
		t.Errorf("VPs before/after churn window = %v, %v; want > 0",
			s.Values[90], s.Values[125])
	}
}

// TestWorkerPanicBecomesError poisons one letter's state so its worker
// panics mid-run, and checks the engine converts that into a wrapped
// error naming the letter and minute instead of crashing the process.
// legitServed is written at every minute, replayed or not.
func TestWorkerPanicBecomesError(t *testing.T) {
	ev, err := NewEvaluator(tinyConfig(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ls := ev.letters['K']
	ls.legitServed = ls.legitServed[:7] // out-of-range write at minute 7
	err = ev.Run()
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	for _, want := range []string{"letter K", "minute 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestWithFaultsRejectsBadPlan(t *testing.T) {
	bad := &faults.Plan{Events: []faults.Event{
		{Kind: faults.SiteOutage, Start: -5, Duration: 10, Letter: 'K'},
	}}
	_, err := NewEvaluator(tinyConfig(1), WithFaults(bad))
	if !errors.Is(err, faults.ErrBadPlan) {
		t.Fatalf("err = %v, want ErrBadPlan", err)
	}
}
