package report

import (
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/stats"
)

func mkSeries(name string, vals ...float64) *stats.Series {
	s := stats.NewSeries(name, 0, 10, len(vals))
	copy(s.Values, vals)
	return s
}

func TestWriteTableAlignment(t *testing.T) {
	var sb strings.Builder
	err := WriteTable(&sb, []string{"a", "bbbb"}, [][]string{{"xxxx", "y"}, {"z", "w"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: "xxxx" sets width 4 for col a.
	if !strings.HasPrefix(lines[3], "z     ") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	a := mkSeries("a", 1, 2, 3)
	b := mkSeries("b", 4, 5, 6)
	if err := WriteSeriesCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "minute,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,4" || lines[3] != "20,3,6" {
		t.Errorf("rows = %v", lines[1:])
	}
	// Geometry mismatch rejected.
	c := stats.NewSeries("c", 5, 10, 3)
	if err := WriteSeriesCSV(&sb, a, c); err == nil {
		t.Error("mismatched geometry accepted")
	}
	if err := WriteSeriesCSV(&sb); err == nil {
		t.Error("empty series list accepted")
	}
}

func TestSparkline(t *testing.T) {
	s := mkSeries("x", 0, 1, 2, 3, 4, 5, 6, 7)
	sp := Sparkline(s, 8)
	if len([]rune(sp)) != 8 {
		t.Fatalf("width = %d", len([]rune(sp)))
	}
	runes := []rune(sp)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("sparkline = %q", sp)
	}
	// Flat series renders at the low level without dividing by zero.
	flat := Sparkline(mkSeries("f", 5, 5, 5), 3)
	if flat != "▁▁▁" {
		t.Errorf("flat = %q", flat)
	}
	// Downsampling works.
	wide := Sparkline(s, 4)
	if len([]rune(wide)) != 4 {
		t.Errorf("downsampled width = %d", len([]rune(wide)))
	}
	if Sparkline(mkSeries("e"), 5) != "" {
		t.Error("empty series should render empty")
	}
}

func TestWriteLetterSeries(t *testing.T) {
	var sb strings.Builder
	err := WriteLetterSeries(&sb, "Figure 3", map[byte]*stats.Series{
		'K': mkSeries("k", 1, 2, 3),
		'B': mkSeries("b", 3, 2, 1),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	bIdx := strings.Index(out, "B")
	kIdx := strings.Index(out, "K")
	if bIdx < 0 || kIdx < 0 || bIdx > kIdx {
		t.Errorf("letters not sorted: %q", out)
	}
	if !strings.Contains(out, "med=2") {
		t.Errorf("missing median: %q", out)
	}
}

func TestWriteTable2And3(t *testing.T) {
	var sb strings.Builder
	rows := []analysis.Table2Row{
		{Letter: 'B', Operator: "USC/ISI", SitesReported: 1, Unicast: true, SitesObserved: 1},
		{Letter: 'K', Operator: "RIPE", SitesReported: 30, GlobalReported: 13, LocalReported: 17, SitesObserved: 25},
	}
	if err := WriteTable2(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "(unicast)") || !strings.Contains(out, "(13, 17)") {
		t.Errorf("table2 = %q", out)
	}

	sb.Reset()
	res := &analysis.Table3Result{
		Rows: []analysis.Table3Row{
			{Letter: 'A', DeltaQueryMqs: 2.5, DeltaQueryGbs: 1.4, UniqueIPsM: 1800, UniqueRatio: 340, DeltaRespMqs: 1.1, DeltaRespGbs: 4.4, BaselineMqs: 0.04},
			{Letter: 'L', Excluded: true},
		},
	}
	res.Bounds.LowerQueryMqs = 2.5
	res.Bounds.UpperQueryMqs = 25
	if err := WriteTable3(&sb, res); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if !strings.Contains(out, "L*") || !strings.Contains(out, "upper") {
		t.Errorf("table3 = %q", out)
	}
}

func TestWriteFigure5And6(t *testing.T) {
	var sb strings.Builder
	rows := []analysis.Figure5Row{
		{Site: "K-AMS", MedianVPs: 100, MinNorm: 0.8, MaxNorm: 1.4},
		{Site: "K-DOH", MedianVPs: 5, MinNorm: 0, MaxNorm: 3, BelowThreshold: true},
	}
	if err := WriteFigure5(&sb, 'K', rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<20 VPs") {
		t.Error("unstable flag missing")
	}
	sb.Reset()
	minis := []analysis.Figure6Site{
		{Site: "K-AMS", MedianVPs: 100, Norm: mkSeries("n", 1, 1, 0.2), CriticalBins: []int{2}},
	}
	if err := WriteFigure6(&sb, 'K', minis, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CRITICAL x1") {
		t.Errorf("figure6 = %q", sb.String())
	}
}

func TestWriteFlipFlowsAndRaster(t *testing.T) {
	var sb strings.Builder
	flows := []analysis.FlipFlow{
		{FromSite: "K-LHR", Movers: 10, Returned: 0.7, Dest: map[string]float64{"K-AMS": 0.8, "K-FRA": 0.2}},
	}
	if err := WriteFlipFlows(&sb, flows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	amsIdx := strings.Index(out, "K-AMS")
	fraIdx := strings.Index(out, "K-FRA")
	if amsIdx < 0 || fraIdx < 0 || amsIdx > fraIdx {
		t.Errorf("destinations not sorted by share: %q", out)
	}
	sb.Reset()
	rows := []analysis.RasterRow{{VP: 3, Cells: []byte("LLAA..LL")}}
	if err := WriteRaster(&sb, rows, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "vp3") {
		t.Errorf("raster = %q", sb.String())
	}
}

// Destinations with equal shares must come out in one order every time:
// fig10.txt is part of the byte-identical output contract, and a sort keyed
// on the share alone leaves ties in map-iteration order.
func TestWriteFlipFlowsTieOrderIsStable(t *testing.T) {
	flows := []analysis.FlipFlow{{FromSite: "K-LHR", Movers: 8, Returned: 0.5,
		Dest: map[string]float64{"K-NRT": 0.25, "K-FRA": 0.25, "K-AMS": 0.5, "K-MIA": 0.25, "K-BNE": 0.25}}}
	const want = "From K-LHR: 8 movers, 50% return after event\n" +
		"  -> K-AMS     50.0%\n  -> K-BNE     25.0%\n  -> K-FRA     25.0%\n  -> K-MIA     25.0%\n  -> K-NRT     25.0%\n"
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := WriteFlipFlows(&sb, flows); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("run %d:\n%s\nwant:\n%s", i, sb.String(), want)
		}
	}
}

func TestWriteServerSeriesAndCorrelation(t *testing.T) {
	var sb strings.Builder
	series := []analysis.ServerSeries{
		{Site: "K-FRA", Server: 1, Success: mkSeries("s", 1, 2), RTT: mkSeries("r", 30, 40)},
	}
	if err := WriteServerSeries(&sb, series, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "K-FRA-S1") {
		t.Errorf("server series = %q", sb.String())
	}
	sb.Reset()
	res := &analysis.SiteCorrelationResult{
		Fit:     stats.LinearFit{R2: 0.87, Slope: 0.004, N: 12},
		Letters: []byte{'B', 'K'},
		Sites:   []float64{1, 30},
		WorstOK: []float64{0.05, 0.8},
	}
	if err := WriteCorrelation(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "R^2 = 0.87") {
		t.Errorf("correlation = %q", sb.String())
	}
}
