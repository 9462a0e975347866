// Command dsreport re-analyzes an archived measurement dataset (written by
// `rootevent -save`) without re-running the simulation — the workflow the
// paper's published datasets support for other researchers.
//
// Usage:
//
//	dsreport -data out/dataset.bin [-letter K]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/report"
	"github.com/rootevent/anycastddos/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsreport: ")
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(core.ExitFailure)
	}
}

func run() error {
	dataPath := flag.String("data", "out/dataset.bin", "archived dataset file")
	letter := flag.String("letter", "", "optional letter for per-site detail")
	width := flag.Int("width", 96, "sparkline width")
	flag.Parse()

	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := atlas.LoadDataset(f)
	if err != nil {
		return err
	}

	fmt.Printf("Dataset: %d VPs (%d excluded), letters %s, %d bins of %d min (raw: %d bins of %d min for ",
		d.NumVPs, d.NumExcluded(), string(d.Letters), d.Bins, d.BinMinutes, d.RawBins, d.RawBinMinutes)
	rawAny := false
	for _, l := range d.Letters {
		if d.HasRaw(l) {
			fmt.Printf("%c", l)
			rawAny = true
		}
	}
	if !rawAny {
		fmt.Print("none")
	}
	fmt.Println(")")

	reasons := map[string]int{}
	for vp, excluded := range d.Excluded {
		if excluded {
			reasons[d.ExcludedReason[vp]]++
		}
	}
	for reason, n := range reasons {
		fmt.Printf("  excluded %d VPs: %s\n", n, reason)
	}
	fmt.Println()

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
	if err := report.WriteLetterSeries(os.Stdout, "VPs with successful queries per bin", success, *width); err != nil {
		return err
	}
	fmt.Println()
	if err := report.WriteLetterSeries(os.Stdout, "Median RTT (ms) of successful queries", rtt, *width); err != nil {
		return err
	}

	if *letter != "" {
		lb := (*letter)[0]
		if !d.HasLetter(lb) {
			return fmt.Errorf("letter %c not in dataset", lb)
		}
		fmt.Printf("\nPer-site catchments for %c (sites with any VPs):\n", lb)
		series, err := d.SiteSeriesAll(lb, 0)
		if err != nil {
			return err
		}
		for site, s := range series {
			if med := s.Median(); med > 0 {
				fmt.Printf("  site %3d (median %4.0f)  %s\n", site, med, report.Sparkline(s, *width))
			}
		}
	}
	return nil
}
