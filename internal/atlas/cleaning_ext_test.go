package atlas_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/atlas/atlastest"
	"github.com/rootevent/anycastddos/internal/chaos"
)

// hostileWorld answers the probes of each (VP, letter) walk with a fixed
// cycle of identity strings chosen to exercise the cleaning stage's memo of
// validated identities: a valid identity, the same one mixed-case and
// space-padded, another letter's identity, a resolver banner at RTTs either
// side of HijackRTTThresholdMs, the empty string, more distinct valid
// identities than the memo holds, and a near-miss of the valid identity that
// first appears once the memo is full. VPs with ID%3 == 0 see the fast banner and VPs
// with ID%5 == 1 the late one; everyone else must stay in the dataset.
type hostileWorld struct{}

func (hostileWorld) ProbeOutcome(vp *atlas.VP, letter byte, minute int) atlas.Outcome {
	other := byte('E')
	if letter == 'E' {
		other = 'K'
	}
	valid := chaos.MustFormat(letter, "AMS", 1)
	ok := func(site, server int, rtt float64, txt string) atlas.Outcome {
		return atlas.Outcome{Status: atlas.OK, Site: site, Server: server, RTTms: rtt, ChaosTXT: txt}
	}
	switch step := (minute / 4) % 18; step {
	case 0:
		return ok(0, 1, 30, valid)
	case 1:
		return ok(0, 1, 31, "  "+strings.ToUpper(valid[:4])+valid[4:]+" \t")
	case 2:
		return ok(1, 1, 40, chaos.MustFormat(other, "AMS", 1))
	case 3:
		return ok(2, 1, atlas.HijackRTTThresholdMs+13, "dnsmasq-2.76")
	case 4:
		rtt := float64(atlas.HijackRTTThresholdMs + 13)
		if vp.ID%3 == 0 {
			rtt = atlas.HijackRTTThresholdMs - 4
		}
		return ok(2, 1, rtt, "dnsmasq-2.76")
	case 5:
		return ok(3, 2, 25, "")
	case 14:
		rtt := 50.0
		if vp.ID%5 == 1 {
			rtt = 2
		}
		// As long as the valid identity, and one byte away from it.
		return ok(4, 1, rtt, strings.Replace(valid, "ams", "am1", 1))
	case 15:
		return ok(4, 9, 33, strings.ToUpper(chaos.MustFormat(letter, "LHR", 9)))
	case 16:
		return atlas.Outcome{Status: atlas.Timeout}
	case 17:
		return atlas.Outcome{Status: atlas.RCodeErr}
	default: // 6..13: eight more distinct valid identities
		return ok(step%5, step-4, 20+float64(step), chaos.MustFormat(letter, "LHR", step-4))
	}
}

// bothWays offers one world to a campaign as a per-probe World and as a
// WalkWorld: the dataset may not depend on which.
func bothWays(w atlas.World) map[string]atlas.World {
	return map[string]atlas.World{"per-probe": atlastest.PerProbeOnly(w), "walk": atlastest.Walking(w)}
}

// TestCleaningMatchesRowStoreUnderHostileIdentities pins the memoised
// cleaning of a walk to the row-store oracle, which probes one minute at a
// time and validates every probe with chaos.Matches: whether the world
// answers probes or walks, the archives (every binned and raw cell, Excluded
// and ExcludedReason) must be byte-identical at 1 and 4 workers.
func TestCleaningMatchesRowStoreUnderHostileIdentities(t *testing.T) {
	p := extPopulation(t, extTestGraph(t), 45)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
	}
	cfg := atlas.ScheduleConfig{
		Letters: []byte("EK"), RawLetters: []byte("K"),
		Minutes: 240, BinMinutes: 10, IntervalMin: 4,
	}
	ref := atlastest.RunCampaign(p, hostileWorld{}, cfg)
	var want bytes.Buffer
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	for how, world := range bothWays(hostileWorld{}) {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			d := atlas.Run(p, world, cfg)
			var got bytes.Buffer
			if err := d.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s workers=%d: archive differs from the row store", how, workers)
			}
			for i := range p.VPs {
				id := p.VPs[i].ID
				wantReason := ""
				if id%3 == 0 || id%5 == 1 {
					wantReason = "hijack"
				}
				if d.Excluded[id] != ref.Excluded(id) || d.Excluded[id] != (wantReason != "") || d.ExcludedReason[id] != wantReason {
					t.Errorf("%s workers=%d VP %d: excluded=%v reason=%q, row store excluded=%v, want reason %q",
						how, workers, id, d.Excluded[id], d.ExcludedReason[id], ref.Excluded(id), wantReason)
				}
			}
			for _, l := range cfg.Letters {
				all, err := d.SiteSeriesAll(l, 0)
				if err != nil {
					t.Fatal(err)
				}
				// Sites 0..4 answer with identities that validate; the sites
				// behind mismatched identities (1 and 2 at steps 2-4) only
				// appear through the valid steps 6..13.
				if len(all) != 5 {
					t.Fatalf("%s workers=%d letter %c: %d site series, want 5", how, workers, l, len(all))
				}
				for site, s := range all {
					atlastest.SameSeries(t, fmt.Sprintf("%s w%d site %c/%d", how, workers, l, site), s, ref.SiteSeries(l, site))
				}
			}
		}
	}
}

// TestWalkMethodDoesNotChangeTheDataset runs the scripted world — every
// outcome class, saturating RTTs, hijacks, A-Root's slower cadence, a
// campaign that neither starts at minute 0 nor ends on a bin boundary — as a
// per-probe World and as a WalkWorld: archives and exclusions must be
// byte-identical to each other and to the row store at 1 and 4 workers.
func TestWalkMethodDoesNotChangeTheDataset(t *testing.T) {
	p := extPopulation(t, extTestGraph(t), 60)
	p.VPs[5].Firmware = atlas.MinFirmware - 1
	cfg := atlas.ScheduleConfig{
		Letters: []byte("AEK"), RawLetters: []byte("EK"),
		StartMinute: 7, Minutes: 247, BinMinutes: 10, IntervalMin: 4, AIntervalMin: 30,
	}
	ref := atlastest.RunCampaign(p, atlastest.ScriptedWorld(), cfg)
	var want bytes.Buffer
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	excluded := 0
	for how, world := range bothWays(atlastest.ScriptedWorld()) {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			d := atlas.Run(p, world, cfg)
			var got bytes.Buffer
			if err := d.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s workers=%d: archive differs from the row store", how, workers)
			}
			for i := range p.VPs {
				if id := p.VPs[i].ID; d.Excluded[id] != ref.Excluded(id) {
					t.Errorf("%s workers=%d VP %d: excluded=%v (%q), row store %v", how, workers, id, d.Excluded[id], d.ExcludedReason[id], ref.Excluded(id))
				}
			}
			excluded = d.NumExcluded()
		}
	}
	if excluded < 2 {
		t.Errorf("only %d vantage points excluded: the script should hijack some beside the old firmware", excluded)
	}
}

// constWorld answers every probe with the same valid identity.
type constWorld struct{ out atlas.Outcome }

func (w constWorld) ProbeOutcome(*atlas.VP, byte, int) atlas.Outcome { return w.out }

// TestRunAllocationsIndependentOfProbeCount guards the per-probe path
// (the walk buffer and its adapter, the identity memo, the row writer): a
// campaign twice as long makes twice the probes and must make the same
// number of allocations — the dataset's columns, the worker goroutine, the
// shard's walk buffer and Seal's tables, all of which grow in size, not in
// count.
func TestRunAllocationsIndependentOfProbeCount(t *testing.T) {
	p := extPopulation(t, extTestGraph(t), 50)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
	}
	for how, world := range bothWays(constWorld{atlas.Outcome{Status: atlas.OK, Site: 0, Server: 1, RTTms: 30, ChaosTXT: chaos.MustFormat('K', "LHR", 1)}}) {
		allocs := func(minutes int) float64 {
			cfg := atlas.ScheduleConfig{
				Letters: []byte("EK"), RawLetters: []byte("K"),
				Minutes: minutes, BinMinutes: 10, IntervalMin: 4, Workers: 1,
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := atlas.RunContext(context.Background(), p, world, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(480), allocs(960)
		if short != long {
			t.Errorf("%s: allocations grow with the probe count: %v for 480 minutes, %v for 960", how, short, long)
		}
		if short > 60 {
			t.Errorf("%s: a 2-letter campaign allocates %v times, want only the dataset's columns and bookkeeping", how, short)
		}
	}
}
