package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"github.com/rootevent/anycastddos/internal/core"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rf, nil
}

// compareMain is -compare: for every (workload, end-to-end metric) pair of
// two results.json files, print how much worse B is than A as a share of A
// (negative: better) against the metric's bound, and exit non-zero when any
// pair differs by more than its bound in either direction, or is missing.
// It is the tool for "two sets of runs agree"; it claims no gain.
func compareMain(stdout io.Writer, specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	a, err := readResults(pathA)
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	b, err := readResults(pathB)
	if err != nil {
		log.Print(err)
		return core.ExitUsage
	}
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	code := core.ExitOK
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		for _, d := range spec.EndToEnd {
			ma, okA := ra.Metrics[d.Name]
			var mb metric
			okB := false
			if rb != nil {
				mb, okB = rb.Metrics[d.Name]
			}
			if !okA || !okB || ma.Value == 0 {
				fmt.Fprintf(stdout, "%-14s %-16s missing\n", ra.Workload, d.Name)
				code = core.ExitFailure
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > d.Bound {
				verdict = "  OUTSIDE"
				code = core.ExitFailure
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n",
				ra.Workload, d.Name, ma.Value, mb.Value, worse*100, d.Bound*100, verdict)
		}
	}
	return code
}
