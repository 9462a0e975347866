// Command dsreport re-analyzes an archived measurement dataset (written by
// `rootevent -save`) without re-running the simulation — the workflow the
// paper's published datasets support for other researchers.
//
// Usage:
//
//	dsreport -data out/dataset.bin [-letter K]
//
// Exit status follows the core.Exit* contract: core.ExitUsage for a
// rejected flag (a -width below 1, a -letter that is not one letter of the
// archive) or an unreadable or malformed -data archive, core.ExitFailure
// when the report itself fails. A rejected flag prints nothing on stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/report"
	"github.com/rootevent/anycastddos/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsreport: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("dsreport", flag.ContinueOnError)
	dataPath := fs.String("data", "out/dataset.bin", "archived dataset file")
	letter := fs.String("letter", "", "optional letter for per-site detail")
	width := fs.Int("width", 96, "sparkline width")
	if err := fs.Parse(args); err != nil {
		return core.UsageExit(err)
	}
	if *width < 1 {
		log.Printf("-width %d: want at least 1", *width)
		return core.ExitUsage
	}
	if len(*letter) > 1 {
		log.Printf("-letter %q: want one letter", *letter)
		return core.ExitUsage
	}

	d, err := load(*dataPath)
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	if *letter != "" && !d.HasLetter((*letter)[0]) {
		log.Printf("-letter %s: not in the dataset (letters %s)", *letter, d.Letters)
		return core.ExitUsage
	}
	if err := writeReport(w, d, *letter, *width); err != nil {
		log.Print(err)
		return core.ExitFailure
	}
	return core.ExitOK
}

func load(path string) (*atlas.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return atlas.LoadDataset(f)
}

func writeReport(w io.Writer, d *atlas.Dataset, letter string, width int) error {
	fmt.Fprintf(w, "Dataset: %d VPs (%d excluded), letters %s, %d bins of %d min (raw: %d bins of %d min for ",
		d.NumVPs, d.NumExcluded(), string(d.Letters), d.Bins, d.BinMinutes, d.RawBins, d.RawBinMinutes)
	rawAny := false
	for _, l := range d.Letters {
		if d.HasRaw(l) {
			fmt.Fprintf(w, "%c", l)
			rawAny = true
		}
	}
	if !rawAny {
		fmt.Fprint(w, "none")
	}
	fmt.Fprintln(w, ")")

	reasons := map[string]int{}
	var names []string
	for vp, excluded := range d.Excluded {
		if excluded {
			if reasons[d.ExcludedReason[vp]] == 0 {
				names = append(names, d.ExcludedReason[vp])
			}
			reasons[d.ExcludedReason[vp]]++
		}
	}
	sort.Strings(names)
	for _, reason := range names {
		fmt.Fprintf(w, "  excluded %d VPs: %s\n", reasons[reason], reason)
	}
	fmt.Fprintln(w)

	success := map[byte]*stats.Series{}
	rtt := map[byte]*stats.Series{}
	for _, l := range d.Letters {
		s, err := d.SuccessSeries(l)
		if err != nil {
			return err
		}
		success[l] = s
		r, err := d.MedianRTTSeries(l)
		if err != nil {
			return err
		}
		rtt[l] = r
	}
	if err := report.WriteLetterSeries(w, "VPs with successful queries per bin", success, width); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.WriteLetterSeries(w, "Median RTT (ms) of successful queries", rtt, width); err != nil {
		return err
	}

	if letter != "" {
		lb := letter[0]
		fmt.Fprintf(w, "\nPer-site catchments for %c (sites with any VPs):\n", lb)
		series, err := d.SiteSeriesAll(lb, 0)
		if err != nil {
			return err
		}
		for site, s := range series {
			if med := s.Median(); med > 0 {
				fmt.Fprintf(w, "  site %3d (median %4.0f)  %s\n", site, med, report.Sparkline(s, width))
			}
		}
	}
	return nil
}
