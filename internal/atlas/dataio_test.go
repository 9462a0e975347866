package atlas

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/rootevent/anycastddos/internal/chaos"
)

// buildTestDataset produces a small populated dataset via the real
// measurement path.
func buildTestDataset(t *testing.T) *Dataset {
	t.Helper()
	g := testGraph(t)
	p := smallPopulation(t, g, 25)
	for i := range p.VPs {
		p.VPs[i].Firmware = 4700
		p.VPs[i].Hijacked = false
	}
	p.VPs[2].Firmware = 4400
	w := &fakeWorld{fn: func(vp *VP, letter byte, minute int) Outcome {
		switch {
		case int(vp.ID)%5 == 0 && minute%8 == 0:
			return Outcome{Status: Timeout}
		case int(vp.ID)%7 == 0:
			return Outcome{Status: RCodeErr}
		default:
			site := int(vp.ID) % 3
			srv := 1 + int(vp.ID)%2
			codes := []string{"AMS", "LHR", "FRA"}
			return Outcome{Status: OK, Site: site, Server: srv,
				RTTms:    20 + float64(vp.ID),
				ChaosTXT: chaos.MustFormat(letter, codes[site], srv)}
		}
	}}
	cfg := ScheduleConfig{
		Letters: []byte("EK"), RawLetters: []byte("K"),
		Minutes: 120, BinMinutes: 10, IntervalMin: 4, AIntervalMin: 30,
	}
	return Run(p, w, cfg)
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	d := buildTestDataset(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Shape.
	if got.NumVPs != d.NumVPs || got.Bins != d.Bins || got.RawBins != d.RawBins ||
		got.BinMinutes != d.BinMinutes || got.StartMinute != d.StartMinute {
		t.Fatalf("shape mismatch: %+v vs %+v", got, d)
	}
	if string(got.Letters) != string(d.Letters) {
		t.Fatalf("letters %q vs %q", got.Letters, d.Letters)
	}
	// Exclusions.
	if !got.Excluded[2] || got.ExcludedReason[2] != "firmware" {
		t.Error("exclusion lost")
	}
	// Every binned cell identical.
	for _, letter := range d.Letters {
		for vp := 0; vp < d.NumVPs; vp++ {
			if d.Excluded[vp] {
				continue
			}
			for b := 0; b < d.Bins; b++ {
				a, _ := d.At(letter, VPID(vp), b)
				bb, _ := got.At(letter, VPID(vp), b)
				if a != bb {
					t.Fatalf("cell %c/%d/%d: %+v vs %+v", letter, vp, b, a, bb)
				}
			}
		}
	}
	// Raw cells for K.
	for vp := 0; vp < d.NumVPs; vp++ {
		if d.Excluded[vp] {
			continue
		}
		for rb := 0; rb < d.RawBins; rb++ {
			a, okA := d.RawAt('K', VPID(vp), rb)
			b, okB := got.RawAt('K', VPID(vp), rb)
			if okA != okB || a != b {
				t.Fatalf("raw cell %d/%d: %+v vs %+v", vp, rb, a, b)
			}
		}
	}
	// Derived series agree.
	s1, err := d.SuccessSeries('K')
	if err != nil {
		t.Fatal(err)
	}
	s2, err := got.SuccessSeries('K')
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Values {
		if s1.Values[i] != s2.Values[i] {
			t.Fatalf("success series differs at %d", i)
		}
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC........................"),
		append(append([]byte{}, datasetMagic[:]...), make([]byte, 8)...), // zero header
	}
	for i, raw := range cases {
		if _, err := LoadDataset(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated valid stream.
	d := buildTestDataset(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadDataset(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
	// A raw letter the file does not list among its letters is corruption,
	// not a nil column to read cells into.
	foreign := append([]byte{}, full...)
	foreign[8+8*4+len(d.Letters)] = 'Q'
	if _, err := LoadDataset(bytes.NewReader(foreign)); !errors.Is(err, ErrBadDatasetFile) {
		t.Errorf("foreign raw letter err = %v, want ErrBadDatasetFile", err)
	}
	// Implausible header is rejected rather than allocating wildly.
	evil := append([]byte{}, datasetMagic[:]...)
	for i := 0; i < 8; i++ {
		evil = append(evil, 0xFF, 0xFF, 0xFF, 0x7F)
	}
	if _, err := LoadDataset(bytes.NewReader(evil)); !errors.Is(err, ErrBadDatasetFile) {
		t.Errorf("huge header err = %v", err)
	}
}

func TestSavePropagatesWriteErrors(t *testing.T) {
	d := buildTestDataset(t)
	if err := d.Save(failingWriter{}); err == nil {
		t.Error("write error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
