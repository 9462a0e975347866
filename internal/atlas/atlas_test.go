package atlas

import (
	"fmt"
	"sync"
	"testing"

	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/geo"
	"github.com/rootevent/anycastddos/internal/topo"
)

func testGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Generate(topo.Config{Tier1s: 4, Tier2s: 30, Stubs: 600, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewPopulation(t *testing.T) {
	g := testGraph(t)
	p, err := NewPopulation(g, PopulationConfig{N: 2000, Seed: 1, OldFirmwareFrac: 0.03, HijackedFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2000 {
		t.Fatalf("N = %d", p.N())
	}
	eu := len(p.InRegion(geo.Europe))
	frac := float64(eu) / 2000
	if frac < 0.5 || frac > 0.75 {
		t.Errorf("Europe fraction = %.2f, want ~0.62 (Atlas bias)", frac)
	}
	old, hij := 0, 0
	for _, vp := range p.VPs {
		if g.AS(vp.ASN).Tier != topo.Stub {
			t.Fatalf("VP %d on non-stub AS", vp.ID)
		}
		if vp.Firmware < MinFirmware {
			old++
		}
		if vp.Hijacked {
			hij++
		}
		if vp.Phase < 0 || vp.Phase > 3 {
			t.Fatalf("VP %d phase = %d", vp.ID, vp.Phase)
		}
	}
	if old < 20 || old > 150 {
		t.Errorf("old firmware VPs = %d, want ~60", old)
	}
	if hij < 5 || hij > 60 {
		t.Errorf("hijacked VPs = %d, want ~20", hij)
	}
}

func TestNewPopulationErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := NewPopulation(g, PopulationConfig{N: 0}); err == nil {
		t.Error("want error for N=0")
	}
}

// fakeWorld implements World with scripted behaviour per VP.
type fakeWorld struct {
	fn func(vp *VP, letter byte, minute int) Outcome
}

func (f *fakeWorld) ProbeOutcome(vp *VP, letter byte, minute int) Outcome {
	return f.fn(vp, letter, minute)
}

func smallPopulation(t *testing.T, g *topo.Graph, n int) *Population {
	t.Helper()
	p, err := NewPopulation(g, PopulationConfig{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunBinsAndPrecedence(t *testing.T) {
	g := testGraph(t)
	p := smallPopulation(t, g, 20)
	for i := range p.VPs {
		p.VPs[i].Phase = 0
		p.VPs[i].Firmware = 4700
		p.VPs[i].Hijacked = false
	}
	// Scripted world: probes at minute 0 succeed on site 1, minute 4
	// time out, minute 8 return an error. The 10-minute bin must report
	// OK at site 1 (site > error > missing precedence).
	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		switch minute % 12 {
		case 0:
			return Outcome{Status: OK, Site: 1, Server: 2, RTTms: 30,
				ChaosTXT: chaos.MustFormat(letter, "AMS", 2)}
		case 4:
			return Outcome{Status: Timeout}
		default:
			return Outcome{Status: RCodeErr}
		}
	}}
	cfg := ScheduleConfig{
		Letters: []byte("K"), RawLetters: []byte("K"),
		Minutes: 40, BinMinutes: 10, IntervalMin: 4, AIntervalMin: 30,
	}
	d := Run(p, w, cfg)
	obs, ok := d.At('K', 0, 0)
	if !ok || obs.Status != OK || obs.Site != 1 || obs.RTTms != 30 {
		t.Errorf("bin 0 = %+v, %v; want OK site 1", obs, ok)
	}
	// Bin 1 covers minutes 10-19: probes at 12 (err), 16 (ok).
	obs1, _ := d.At('K', 0, 1)
	if obs1.Status != OK {
		t.Errorf("bin 1 = %+v, want OK (12->err, 16->timeout? check schedule)", obs1)
	}
	// Raw probes retained.
	raw, ok := d.RawAt('K', 0, 0)
	if !ok || raw.Status != OK || raw.Server != 2 {
		t.Errorf("raw 0 = %+v, %v", raw, ok)
	}
	raw1, _ := d.RawAt('K', 0, 1)
	if raw1.Status != Timeout {
		t.Errorf("raw 1 = %+v, want timeout", raw1)
	}
}

func TestRunCleansFirmwareAndHijacks(t *testing.T) {
	g := testGraph(t)
	p := smallPopulation(t, g, 30)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
		p.VPs[i].Hijacked = false
	}
	p.VPs[3].Firmware = 4500  // old firmware -> excluded
	p.VPs[7].Hijacked = true  // bogus replies at short RTT -> excluded
	p.VPs[11].Hijacked = true // bogus replies but slow -> kept, no site

	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		if vp.Hijacked {
			rtt := 2.0
			if vp.ID == 11 {
				rtt = 45 // interception far away: not flagged by the heuristic
			}
			return Outcome{Status: OK, Site: 0, RTTms: rtt, ChaosTXT: "dnsmasq-2.76"}
		}
		return Outcome{Status: OK, Site: 0, Server: 1, RTTms: 25,
			ChaosTXT: chaos.MustFormat(letter, "AMS", 1)}
	}}
	cfg := ScheduleConfig{Letters: []byte("K"), Minutes: 20, BinMinutes: 10, IntervalMin: 4}
	d := Run(p, w, cfg)

	if !d.Excluded[3] || d.ExcludedReason[3] != "firmware" {
		t.Errorf("VP3 = excluded %v reason %q", d.Excluded[3], d.ExcludedReason[3])
	}
	if !d.Excluded[7] || d.ExcludedReason[7] != "hijack" {
		t.Errorf("VP7 = excluded %v reason %q", d.Excluded[7], d.ExcludedReason[7])
	}
	if d.Excluded[11] {
		t.Error("VP11 should be kept (slow interception evades the heuristic, as in the paper)")
	}
	// But VP11's observations carry no site mapping.
	obs, ok := d.At('K', 11, 0)
	if !ok || obs.Site != NoSite {
		t.Errorf("VP11 bin = %+v, want no site", obs)
	}
	if got := d.NumExcluded(); got != 2 {
		t.Errorf("NumExcluded = %d, want 2", got)
	}
	// Excluded VPs are invisible through At.
	if _, ok := d.At('K', 3, 0); ok {
		t.Error("excluded VP visible through At")
	}
}

func TestRunAProbedSlower(t *testing.T) {
	g := testGraph(t)
	p := smallPopulation(t, g, 5)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
		p.VPs[i].Hijacked = false
		p.VPs[i].Phase = 0
	}
	var mu sync.Mutex
	probes := map[byte]int{}
	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		mu.Lock()
		probes[letter]++
		mu.Unlock()
		return Outcome{Status: OK, Site: 0, RTTms: 20, ChaosTXT: chaos.MustFormat(letter, "AMS", 1)}
	}}
	cfg := ScheduleConfig{
		Letters: []byte("AK"), Minutes: 120, BinMinutes: 10,
		IntervalMin: 4, AIntervalMin: 30,
	}
	Run(p, w, cfg)
	if probes['K'] != 5*30 {
		t.Errorf("K probes = %d, want 150", probes['K'])
	}
	if probes['A'] != 5*4 {
		t.Errorf("A probes = %d, want 20", probes['A'])
	}
}

func TestTimeoutEnforcedAtProbeLayer(t *testing.T) {
	g := testGraph(t)
	p := smallPopulation(t, g, 2)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
		p.VPs[i].Hijacked = false
		p.VPs[i].Phase = 0
	}
	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		// The site "answers" but slower than the Atlas timeout.
		return Outcome{Status: OK, Site: 0, RTTms: 6000, ChaosTXT: chaos.MustFormat(letter, "AMS", 1)}
	}}
	cfg := ScheduleConfig{Letters: []byte("K"), Minutes: 10, BinMinutes: 10, IntervalMin: 4}
	d := Run(p, w, cfg)
	obs, _ := d.At('K', 0, 0)
	if obs.Status != Timeout {
		t.Errorf("slow reply status = %v, want Timeout", obs.Status)
	}
}

func TestSeriesAccessors(t *testing.T) {
	g := testGraph(t)
	p := smallPopulation(t, g, 10)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
		p.VPs[i].Hijacked = false
		p.VPs[i].Phase = 0
	}
	// VPs 0-5 hit site 0 at 20 ms, 6-9 hit site 1 at 100 ms; during
	// minutes >= 20 site 1 times out.
	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		if vp.ID < 6 {
			return Outcome{Status: OK, Site: 0, Server: 1, RTTms: 20, ChaosTXT: chaos.MustFormat(letter, "AMS", 1)}
		}
		if minute >= 20 {
			return Outcome{Status: Timeout}
		}
		return Outcome{Status: OK, Site: 1, Server: 1, RTTms: 100, ChaosTXT: chaos.MustFormat(letter, "LHR", 1)}
	}}
	cfg := ScheduleConfig{Letters: []byte("K"), Minutes: 40, BinMinutes: 10, IntervalMin: 4}
	d := Run(p, w, cfg)

	succ, err := d.SuccessSeries('K')
	if err != nil {
		t.Fatal(err)
	}
	if succ.Values[0] != 10 || succ.Values[3] != 6 {
		t.Errorf("success series = %v", succ.Values)
	}
	rtt, err := d.MedianRTTSeries('K')
	if err != nil {
		t.Fatal(err)
	}
	if rtt.Values[0] != 20 {
		t.Errorf("median rtt bin0 = %v, want 20 (median of 6x20,4x100)", rtt.Values[0])
	}
	if rtt.Values[3] != 20 {
		t.Errorf("median rtt bin3 = %v, want 20", rtt.Values[3])
	}
	site0, err := d.SiteSeries('K', 0)
	if err != nil {
		t.Fatal(err)
	}
	site1, _ := d.SiteSeries('K', 1)
	if site0.Values[0] != 6 || site1.Values[0] != 4 || site1.Values[3] != 0 {
		t.Errorf("site series = %v / %v", site0.Values, site1.Values)
	}
	srtt, err := d.SiteRTTSeries('K', 1)
	if err != nil {
		t.Fatal(err)
	}
	if srtt.Values[0] != 100 {
		t.Errorf("site1 rtt = %v", srtt.Values[0])
	}
	if _, err := d.SuccessSeries('Z'); err == nil {
		t.Error("unknown letter should error")
	}
	if _, err := d.MedianRTTSeries('Z'); err == nil {
		t.Error("unknown letter should error")
	}
	if _, err := d.SiteSeries('Z', 0); err == nil {
		t.Error("unknown letter should error")
	}
	if _, err := d.SiteRTTSeries('Z', 0); err == nil {
		t.Error("unknown letter should error")
	}
}

func TestDatasetBounds(t *testing.T) {
	d := NewDataset([]byte("K"), []byte("K"), 3, 0, 10, 6, 4)
	if _, ok := d.At('K', 0, -1); ok {
		t.Error("negative bin accepted")
	}
	if _, ok := d.At('K', 0, 6); ok {
		t.Error("overflow bin accepted")
	}
	if _, ok := d.RawAt('K', 0, 15); ok {
		t.Error("overflow raw bin accepted")
	}
	if _, ok := d.RawAt('E', 0, 0); ok {
		t.Error("raw access for unretained letter accepted")
	}
	if d.HasLetter('E') || !d.HasLetter('K') {
		t.Error("HasLetter wrong")
	}
	if d.HasRaw('E') || !d.HasRaw('K') {
		t.Error("HasRaw wrong")
	}
	count := 0
	d.EachVP(func(vp VPID) { count++ })
	if count != 3 {
		t.Errorf("EachVP visited %d", count)
	}
	d.Exclude(1, "test")
	count = 0
	d.EachVP(func(vp VPID) { count++ })
	if count != 2 {
		t.Errorf("EachVP after exclude visited %d", count)
	}
}

func TestStatusString(t *testing.T) {
	names := map[Status]string{NoData: "nodata", OK: "ok", RCodeErr: "error", Timeout: "timeout"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status string")
	}
}

func TestClampRTT(t *testing.T) {
	d := NewDataset([]byte("K"), nil, 1, 0, 10, 1, 4)
	for _, tt := range []struct {
		in   float64
		want uint16
	}{{-5, 0}, {0, 0}, {100.7, 100}, {70000, RTTOverflowMs}} {
		if got := d.clampRTT(tt.in); got != tt.want {
			t.Errorf("clampRTT(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
	if got := d.RTTOverflowCount(); got != 1 {
		t.Errorf("RTTOverflowCount = %d, want 1 (only the 70000 ms probe saturates)", got)
	}
}

// TestRTTOverflowRecorded is the regression test for the silent-saturation
// fix: an out-of-range RTT must be stored as the RTTOverflowMs sentinel AND
// surface in RTTOverflowCount, instead of masquerading as a plausible
// measurement — once per probe, however many cells the probe lands in.
func TestRTTOverflowRecorded(t *testing.T) {
	d := NewDataset([]byte("EK"), []byte("K"), 1, 0, 10, 1, 4)
	d.record(0, 'K', 0, 2, 1, OK, 123456)
	if got := d.RTTOverflowCount(); got != 1 {
		t.Errorf("RTTOverflowCount = %d, want 1 (one probe, though it fills a raw and a binned cell)", got)
	}
	// So slow a success is a Timeout by the time it is recorded: the binned
	// cell carries no RTT, the raw cell the sentinel.
	obs, ok := d.At('K', 0, 0)
	if !ok || obs.Status != Timeout || obs.RTTms != 0 {
		t.Errorf("binned cell = %+v (ok=%v), want a Timeout without RTT", obs, ok)
	}
	raw, ok := d.RawAt('K', 0, 0)
	if !ok || raw.Status != Timeout || raw.RTTms != RTTOverflowMs {
		t.Errorf("raw cell = %+v (ok=%v), want a Timeout with sentinel %d", raw, ok, uint16(RTTOverflowMs))
	}
	// A normal in-range probe must not bump the counter.
	d.record(0, 'K', 1, 2, 1, OK, 30)
	if got := d.RTTOverflowCount(); got != 1 {
		t.Errorf("RTTOverflowCount after in-range probe = %d, want 1", got)
	}
	// A saturating probe counts the same without raw retention, and not at
	// all when its minute lies outside the dataset.
	d.record(0, 'E', 4, 2, 1, OK, 70000)
	if got := d.RTTOverflowCount(); got != 2 {
		t.Errorf("RTTOverflowCount after a saturated probe of a letter without raw retention = %d, want 2", got)
	}
	d.record(0, 'E', -3, 2, 1, OK, 70000)
	d.record(0, 'K', 10, 2, 1, OK, 70000)
	if got := d.RTTOverflowCount(); got != 2 {
		t.Errorf("RTTOverflowCount after probes outside the dataset = %d, want 2", got)
	}
}

func BenchmarkRunSmallCampaign(b *testing.B) {
	g, err := topo.Generate(topo.Config{Tier1s: 4, Tier2s: 30, Stubs: 600, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPopulation(g, PopulationConfig{N: 200, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	txt := chaos.MustFormat('K', "AMS", 1)
	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		return Outcome{Status: OK, Site: 0, Server: 1, RTTms: 25, ChaosTXT: txt}
	}}
	cfg := ScheduleConfig{Letters: []byte("K"), Minutes: 240, BinMinutes: 10, IntervalMin: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Run(p, w, cfg)
		if d.NumVPs != 200 {
			b.Fatal("bad run")
		}
	}
}

var _ = fmt.Sprintf // referenced to keep the import while tests evolve
