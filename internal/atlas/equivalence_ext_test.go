package atlas_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/atlas/atlastest"
	"github.com/rootevent/anycastddos/internal/topo"
)

// This file pins the columnar store to the seed's row-shaped implementation,
// now hosted in internal/atlas/atlastest: RunCampaign there is a verbatim
// copy of the original array-of-structs campaign (record precedence, series
// math, and Save codec included), and the tests assert the two produce
// byte-identical output from identical probe streams. Any divergence in
// binning precedence, median arithmetic, or the ATLDS001 byte stream fails
// here before it can corrupt a figure.

func extTestGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Generate(topo.Config{Tier1s: 4, Tier2s: 30, Stubs: 600, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func extPopulation(t *testing.T, g *topo.Graph, n int) *atlas.Population {
	t.Helper()
	p, err := atlas.NewPopulation(g, atlas.PopulationConfig{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestColumnarMatchesRowStore runs the same scripted campaign through the
// columnar store (at 1 and 4 workers) and through the copied seed row store,
// and requires byte-identical Save output and bit-identical series.
func TestColumnarMatchesRowStore(t *testing.T) {
	g := extTestGraph(t)
	p := extPopulation(t, g, 60)
	for i := range p.VPs {
		if i%13 == 4 {
			p.VPs[i].Firmware = 4000 // cleaned out by the firmware rule
		}
	}
	w := atlastest.ScriptedWorld()
	cfg := atlas.ScheduleConfig{
		Letters: []byte("AEK"), RawLetters: []byte("K"),
		Minutes: 120, BinMinutes: 10, IntervalMin: 4, AIntervalMin: 30,
	}

	ref := atlastest.RunCampaign(p, w, cfg)
	var refBytes bytes.Buffer
	if err := ref.Save(&refBytes); err != nil {
		t.Fatal(err)
	}
	if !ref.Excluded(4) {
		t.Fatal("fixture defect: expected VP 4 to be firmware-excluded")
	}

	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		d := atlas.Run(p, w, cfg)
		var got bytes.Buffer
		if err := d.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), refBytes.Bytes()) {
			t.Fatalf("workers=%d: Save bytes differ from row store (%d vs %d bytes)",
				workers, got.Len(), refBytes.Len())
		}
		for _, l := range cfg.Letters {
			ss, err := d.SuccessSeries(l)
			if err != nil {
				t.Fatal(err)
			}
			atlastest.SameSeries(t, fmt.Sprintf("w%d success %c", workers, l), ss, ref.SuccessSeries(l))
			ms, err := d.MedianRTTSeries(l)
			if err != nil {
				t.Fatal(err)
			}
			atlastest.SameSeries(t, fmt.Sprintf("w%d median %c", workers, l), ms, ref.MedianRTTSeries(l))
			for site := 0; site < 5; site++ {
				vs, err := d.SiteSeries(l, site)
				if err != nil {
					t.Fatal(err)
				}
				atlastest.SameSeries(t, fmt.Sprintf("w%d site %c/%d", workers, l, site), vs, ref.SiteSeries(l, site))
				rs, err := d.SiteRTTSeries(l, site)
				if err != nil {
					t.Fatal(err)
				}
				atlastest.SameSeries(t, fmt.Sprintf("w%d siteRTT %c/%d", workers, l, site), rs, ref.SiteRTTSeries(l, site))
			}
		}
	}
}

// TestRowsCursorMatchesAt checks that the cursor views agree cell-for-cell
// with the (deprecated) At/RawAt accessors and enumerate exactly the
// non-excluded VPs.
func TestRowsCursorMatchesAt(t *testing.T) {
	g := extTestGraph(t)
	p := extPopulation(t, g, 40)
	for i := range p.VPs {
		if i%11 == 3 {
			p.VPs[i].Firmware = 4000
		}
	}
	cfg := atlas.ScheduleConfig{
		Letters: []byte("EK"), RawLetters: []byte("K"),
		Minutes: 80, BinMinutes: 10, IntervalMin: 4,
	}
	d := atlas.Run(p, atlastest.ScriptedWorld(), cfg)

	for _, l := range cfg.Letters {
		rows, err := d.Rows(l)
		if err != nil {
			t.Fatal(err)
		}
		var seen []atlas.VPID
		for rows.Next() {
			vp := rows.VP()
			seen = append(seen, vp)
			for b := 0; b < d.Bins; b++ {
				obs, ok := d.At(l, vp, b)
				if !ok {
					t.Fatalf("At(%c, %d, %d) not ok for cursor-visible VP", l, vp, b)
				}
				if rows.Status()[b] != obs.Status || rows.Site()[b] != obs.Site || rows.RTT()[b] != obs.RTTms {
					t.Fatalf("cursor cell (%c, %d, %d) = %v/%d/%d, At = %+v",
						l, vp, b, rows.Status()[b], rows.Site()[b], rows.RTT()[b], obs)
				}
			}
		}
		var want []atlas.VPID
		d.EachVP(func(vp atlas.VPID) { want = append(want, vp) })
		if len(seen) != len(want) {
			t.Fatalf("cursor saw %d VPs, EachVP saw %d", len(seen), len(want))
		}
		for i := range seen {
			if seen[i] != want[i] {
				t.Fatalf("cursor VP order diverges at %d: %d vs %d", i, seen[i], want[i])
			}
		}
	}

	raw, err := d.RawRows('K')
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SiteServers()) == 0 {
		t.Fatal("campaign dataset should be sealed with a non-empty intern table")
	}
	for raw.Next() {
		vp := raw.VP()
		for rb := 0; rb < d.RawBins; rb++ {
			obs, ok := d.RawAt('K', vp, rb)
			if !ok {
				t.Fatalf("RawAt('K', %d, %d) not ok", vp, rb)
			}
			if raw.Status()[rb] != obs.Status || raw.Site(rb) != obs.Site ||
				raw.Server(rb) != obs.Server || raw.RTT()[rb] != obs.RTTms {
				t.Fatalf("raw cursor cell (%d, %d) = %v/%d/%d/%d, RawAt = %+v",
					vp, rb, raw.Status()[rb], raw.Site(rb), raw.Server(rb), raw.RTT()[rb], obs)
			}
		}
	}
	if _, err := d.Rows('Z'); err == nil {
		t.Error("Rows('Z') should fail for an untracked letter")
	}
	if _, err := d.RawRows('E'); err == nil {
		t.Error("RawRows('E') should fail without raw retention")
	}
}

// TestArchiveMovesCellsInChunks holds the chunked Save and LoadDataset to
// the row store's cell-at-a-time codec on an archive many chunks long: the
// same bytes out, the same dataset back, and a stream cut anywhere — inside
// the last chunk, on a chunk boundary, in the header — an error, not a panic
// or a short dataset.
func TestArchiveMovesCellsInChunks(t *testing.T) {
	p := extPopulation(t, extTestGraph(t), 700)
	cfg := atlas.ScheduleConfig{
		Letters: []byte("AEK"), RawLetters: []byte("K"),
		Minutes: 480, BinMinutes: 10, IntervalMin: 4, AIntervalMin: 30,
	}
	var want bytes.Buffer
	if err := atlastest.RunCampaign(p, atlastest.ScriptedWorld(), cfg).Save(&want); err != nil {
		t.Fatal(err)
	}
	full := want.Bytes()
	if len(full) < 10<<16 {
		t.Fatalf("archive is %d bytes: too short to span many chunks", len(full))
	}
	var got bytes.Buffer
	if err := atlas.Run(p, atlastest.ScriptedWorld(), cfg).Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), full) {
		t.Fatal("Save bytes differ from the row store's")
	}
	loaded, err := atlas.LoadDataset(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), full) {
		t.Fatal("a loaded archive saves to different bytes")
	}

	cuts := []int{8, 30, len(full) / 3, len(full) / 2, len(full) - 1<<16 - 1, len(full) - 1<<16, len(full) - 7, len(full) - 6, len(full) - 5, len(full) - 1}
	for cut := 50_021; cut < len(full); cut += 50_021 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		if d, err := atlas.LoadDataset(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("archive cut at %d of %d bytes loaded (%d VPs)", cut, len(full), d.NumVPs)
		}
	}
}
