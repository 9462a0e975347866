// Package report renders analysis results as aligned text tables, CSV
// series (one row per 10-minute bin, ready for any plotting tool), and
// compact ASCII time-series charts for terminal inspection.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/rootevent/anycastddos/internal/analysis"
	"github.com/rootevent/anycastddos/internal/stats"
)

// WriteTable renders rows with aligned columns.
func WriteTable(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if err := line(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesCSV writes one or more aligned series as CSV: a minute column
// followed by one column per series. All series must share bin geometry.
func WriteSeriesCSV(w io.Writer, series ...*stats.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series")
	}
	first := series[0]
	for _, s := range series[1:] {
		if s.StartMinute != first.StartMinute || s.BinMinutes != first.BinMinutes || s.Bins() != first.Bins() {
			return fmt.Errorf("report: series %q has mismatched geometry", s.Name)
		}
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, "minute")
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for b := 0; b < first.Bins(); b++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%d", first.MinuteFor(b)))
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.4g", s.Values[b]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a fixed-width unicode strip, downsampling
// by bin-mean. Empty series render as "".
func Sparkline(s *stats.Series, width int) string {
	if s.Bins() == 0 || width <= 0 {
		return ""
	}
	if width > s.Bins() {
		width = s.Bins()
	}
	vals := make([]float64, width)
	per := float64(s.Bins()) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > s.Bins() {
			hi = s.Bins()
		}
		vals[i] = stats.Mean(s.Values[lo:hi])
	}
	min, max, err := stats.MinMax(vals)
	if err != nil {
		return ""
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkLevels)-1))
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

// WriteLetterSeries renders a map of per-letter series as labelled
// sparklines with min/median/max annotations (the terminal counterpart of
// Figures 3, 4, 8, 9).
func WriteLetterSeries(w io.Writer, title string, series map[byte]*stats.Series, width int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	letters := make([]byte, 0, len(series))
	for l := range series {
		letters = append(letters, l)
	}
	sort.Slice(letters, func(i, j int) bool { return letters[i] < letters[j] })
	for _, l := range letters {
		s := series[l]
		min, _, _ := s.Min()
		max, _, _ := s.Max()
		if _, err := fmt.Fprintf(w, "  %c  %s  min=%.4g med=%.4g max=%.4g\n",
			l, Sparkline(s, width), min, s.Median(), max); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, rows []analysis.Table2Row) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		arch := fmt.Sprintf("(%d, %d)", r.GlobalReported, r.LocalReported)
		if r.Unicast {
			arch = "(unicast)"
		}
		if r.PrimaryBackup {
			arch = "(pri/back)"
		}
		out = append(out, []string{
			string(r.Letter), r.Operator,
			fmt.Sprintf("%d %s", r.SitesReported, arch),
			fmt.Sprintf("%d", r.SitesObserved),
		})
	}
	return WriteTable(w, []string{"letter", "operator", "sites reported", "sites observed"}, out)
}

// WriteTable3 renders one event's Table 3.
func WriteTable3(w io.Writer, res *analysis.Table3Result) error {
	if _, err := fmt.Fprintf(w, "Event %s (%d min), qname %s\n",
		res.Event.Name, res.Event.Duration(), res.Event.QName); err != nil {
		return err
	}
	rows := make([][]string, 0, len(res.Rows)+3)
	for _, r := range res.Rows {
		mark := ""
		if r.Excluded {
			mark = "*"
		}
		rows = append(rows, []string{
			string(r.Letter) + mark,
			fmt.Sprintf("%.2f", r.DeltaQueryMqs),
			fmt.Sprintf("%.2f", r.DeltaQueryGbs),
			fmt.Sprintf("%.1f (%.0fx)", r.UniqueIPsM, r.UniqueRatio),
			fmt.Sprintf("%.2f", r.DeltaRespMqs),
			fmt.Sprintf("%.2f", r.DeltaRespGbs),
			fmt.Sprintf("%.3f", r.BaselineMqs),
		})
	}
	b := res.Bounds
	rows = append(rows,
		[]string{"lower", f2(b.LowerQueryMqs), f2(b.LowerQueryGbs), "-", f2(b.LowerRespMqs), f2(b.LowerRespGbs), "-"},
		[]string{"(scaled)", f2(b.ScaledQueryMqs), f2(b.ScaledQueryGbs), "-", f2(b.ScaledRespMqs), f2(b.ScaledRespGbs), "-"},
		[]string{"upper", f2(b.UpperQueryMqs), f2(b.UpperQueryGbs), "-", f2(b.UpperRespMqs), f2(b.UpperRespGbs), "-"},
	)
	err := WriteTable(w, []string{"letter", "dQ Mq/s", "dQ Gb/s", "M IPs (ratio)", "dR Mq/s", "dR Gb/s", "base Mq/s"}, rows)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "* not attacked; excluded from bounds")
	return err
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// WriteFigure5 renders the per-site min/max table of Figure 5.
func WriteFigure5(w io.Writer, letter byte, rows []analysis.Figure5Row) error {
	if _, err := fmt.Fprintf(w, "Figure 5: %c-Root site catchment swings (normalized to median)\n", letter); err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		flag := ""
		if r.BelowThreshold {
			flag = "  <20 VPs (unstable)"
		}
		out = append(out, []string{
			r.Site,
			fmt.Sprintf("%.0f", r.MedianVPs),
			fmt.Sprintf("%.2f", r.MinNorm),
			fmt.Sprintf("%.2f", r.MaxNorm),
			flag,
		})
	}
	return WriteTable(w, []string{"site", "median VPs", "min/med", "max/med", ""}, out)
}

// WriteFigure6 renders the per-site mini-plots of Figure 6 as sparklines.
func WriteFigure6(w io.Writer, letter byte, minis []analysis.Figure6Site, width int) error {
	if _, err := fmt.Fprintf(w, "Figure 6: %c-Root per-site catchments (VPs / median)\n", letter); err != nil {
		return err
	}
	for _, m := range minis {
		crit := ""
		if len(m.CriticalBins) > 0 {
			crit = fmt.Sprintf("  CRITICAL x%d", len(m.CriticalBins))
		}
		if _, err := fmt.Fprintf(w, "  %-8s (%4.0f)  %s%s\n", m.Site, m.MedianVPs, Sparkline(m.Norm, width), crit); err != nil {
			return err
		}
	}
	return nil
}

// WriteFlipFlows renders Figure 10's flow breakdown.
func WriteFlipFlows(w io.Writer, flows []analysis.FlipFlow) error {
	for _, f := range flows {
		if _, err := fmt.Fprintf(w, "From %s: %d movers, %.0f%% return after event\n",
			f.FromSite, f.Movers, f.Returned*100); err != nil {
			return err
		}
		dests := make([]string, 0, len(f.Dest))
		for d := range f.Dest {
			dests = append(dests, d)
		}
		// Largest share first; equal shares by name, so the order never
		// depends on map iteration.
		sort.Slice(dests, func(i, j int) bool {
			if fi, fj := f.Dest[dests[i]], f.Dest[dests[j]]; fi != fj {
				return fi > fj
			}
			return dests[i] < dests[j]
		})
		for _, d := range dests {
			if _, err := fmt.Fprintf(w, "  -> %-8s %5.1f%%\n", d, f.Dest[d]*100); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteRaster renders Figure 11's VP raster, downsampling columns to
// maxWidth.
func WriteRaster(w io.Writer, rows []analysis.RasterRow, maxWidth int) error {
	if _, err := fmt.Fprintln(w, "Figure 11 raster: L=home1 F=home2 A=overflow o=other .=fail"); err != nil {
		return err
	}
	for _, r := range rows {
		cells := r.Cells
		if maxWidth > 0 && len(cells) > maxWidth {
			sampled := make([]byte, maxWidth)
			for i := 0; i < maxWidth; i++ {
				sampled[i] = cells[i*len(cells)/maxWidth]
			}
			cells = sampled
		}
		if _, err := fmt.Fprintf(w, "  vp%-6d %s\n", r.VP, cells); err != nil {
			return err
		}
	}
	return nil
}

// WriteServerSeries renders Figures 12/13 as per-server sparklines.
func WriteServerSeries(w io.Writer, series []analysis.ServerSeries, width int) error {
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "  %s-S%d  ok: %s  rtt: %s\n",
			s.Site, s.Server, Sparkline(s.Success, width), Sparkline(s.RTT, width)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCorrelation renders the §3.2.1 correlation summary.
func WriteCorrelation(w io.Writer, res *analysis.SiteCorrelationResult) error {
	if _, err := fmt.Fprintf(w, "Sites vs worst reachability: R^2 = %.2f, slope = %.4f (n=%d)\n",
		res.Fit.R2, res.Fit.Slope, res.Fit.N); err != nil {
		return err
	}
	if res.FitAttacked.N > 0 {
		if _, err := fmt.Fprintf(w, "Attacked letters only:       R^2 = %.2f, slope = %.4f (n=%d)\n",
			res.FitAttacked.R2, res.FitAttacked.Slope, res.FitAttacked.N); err != nil {
			return err
		}
	}
	rows := make([][]string, 0, len(res.Letters))
	for i, l := range res.Letters {
		rows = append(rows, []string{
			string(l),
			fmt.Sprintf("%.0f", res.Sites[i]),
			fmt.Sprintf("%.2f", res.WorstOK[i]),
		})
	}
	return WriteTable(w, []string{"letter", "sites", "worst ok frac"}, rows)
}
