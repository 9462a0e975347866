package atlas_test

import (
	"bytes"
	"encoding/binary"
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

// TestRowsCursorMatchesRowStore checks the cursor views cell-for-cell
// against the seed's row store, read back out of its own ATLDS001 stream,
// and that they enumerate exactly the VPs the row store did not exclude.
func TestRowsCursorMatchesRowStore(t *testing.T) {
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
	ref := atlastest.RunCampaign(p, atlastest.ScriptedWorld(), cfg)
	binned, raw := rowStoreCells(t, ref)

	var want []atlas.VPID
	for vp := 0; vp < d.NumVPs; vp++ {
		if !ref.Excluded(atlas.VPID(vp)) {
			want = append(want, atlas.VPID(vp))
		}
	}
	if len(want) == d.NumVPs {
		t.Fatal("fixture defect: expected firmware-excluded VPs")
	}
	for _, l := range cfg.Letters {
		rows, err := d.Rows(l)
		if err != nil {
			t.Fatal(err)
		}
		var seen []atlas.VPID
		for rows.Next() {
			vp := rows.VP()
			seen = append(seen, vp)
			if len(rows.Status()) != d.Bins {
				t.Fatalf("row (%c, %d) has %d bins, want %d", l, vp, len(rows.Status()), d.Bins)
			}
			for b := 0; b < d.Bins; b++ {
				got := rowCell{Site: rows.Site()[b], Status: rows.Status()[b], RTTms: rows.RTT()[b]}
				if exp := binned[l][int(vp)*d.Bins+b]; got != exp {
					t.Fatalf("cursor cell (%c, %d, %d) = %+v, row store %+v", l, vp, b, got, exp)
				}
			}
		}
		if fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Fatalf("letter %c: cursor visited %v, row store kept %v", l, seen, want)
		}
	}

	rr, err := d.RawRows('K')
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SiteServers()) == 0 {
		t.Fatal("campaign dataset should be sealed with a non-empty intern table")
	}
	var seen []atlas.VPID
	for rr.Next() {
		vp := rr.VP()
		seen = append(seen, vp)
		if len(rr.Status()) != d.RawBins {
			t.Fatalf("raw row %d has %d bins, want %d", vp, len(rr.Status()), d.RawBins)
		}
		for rb := 0; rb < d.RawBins; rb++ {
			got := rowCell{Site: rr.Site(rb), Server: rr.Server(rb), Status: rr.Status()[rb], RTTms: rr.RTT()[rb]}
			if exp := raw['K'][int(vp)*d.RawBins+rb]; got != exp {
				t.Fatalf("raw cursor cell (%d, %d) = %+v, row store %+v", vp, rb, got, exp)
			}
		}
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("raw cursor visited %v, row store kept %v", seen, want)
	}
	if _, err := d.Rows('Z'); err == nil {
		t.Error("Rows('Z') should fail for an untracked letter")
	}
	if _, err := d.RawRows('E'); err == nil {
		t.Error("RawRows('E') should fail without raw retention")
	}
}

// rowCell is one cell of the row store; Server is 0 for binned cells.
type rowCell struct {
	Site   int16
	Server int8
	Status atlas.Status
	RTTms  uint16
}

// rowStoreCells decodes the binned and raw cells, per letter in VP-major
// order, from the row store's ATLDS001 stream: magic, eight u32 shape
// fields, letters, raw letters, per-VP exclusion records, then 5-byte
// binned cells and 6-byte raw cells.
func rowStoreCells(t *testing.T, ref *atlastest.RowDataset) (binned, raw map[byte][]rowCell) {
	t.Helper()
	var buf bytes.Buffer
	if err := ref.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[8:]
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		return v
	}
	_, _, bins, _, rawBins, numVPs, nLetters, nRaw := u32(), u32(), u32(), u32(), u32(), u32(), u32(), u32()
	letters, rawLetters := b[:nLetters], b[nLetters:nLetters+nRaw]
	b = b[nLetters+nRaw:]
	for vp := 0; vp < numVPs; vp++ {
		b = b[2+int(b[1]):]
	}
	binned, raw = make(map[byte][]rowCell), make(map[byte][]rowCell)
	for _, l := range letters {
		cells := make([]rowCell, numVPs*bins)
		for i := range cells {
			cells[i] = rowCell{Site: int16(binary.LittleEndian.Uint16(b)), Status: atlas.Status(b[2]), RTTms: binary.LittleEndian.Uint16(b[3:])}
			b = b[5:]
		}
		binned[l] = cells
	}
	for _, l := range rawLetters {
		cells := make([]rowCell, numVPs*rawBins)
		for i := range cells {
			cells[i] = rowCell{Site: int16(binary.LittleEndian.Uint16(b)), Server: int8(b[2]), Status: atlas.Status(b[3]), RTTms: binary.LittleEndian.Uint16(b[4:])}
			b = b[6:]
		}
		raw[l] = cells
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes left over after the row store's cells", len(b))
	}
	return binned, raw
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
