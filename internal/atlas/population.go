// Package atlas models a RIPE-Atlas-like measurement platform: a global —
// but strongly Europe-biased — population of vantage points (VPs) that
// query every root letter with CHAOS probes on a fixed cadence, plus the
// data cleaning and ten-minute binning the paper applies before analysis
// (§2.4.1).
package atlas

import (
	"fmt"
	"math/rand"

	"github.com/rootevent/anycastddos/internal/geo"
	"github.com/rootevent/anycastddos/internal/topo"
)

// VPID identifies a vantage point.
type VPID int32

// MinFirmware is the oldest firmware version whose measurements are kept
// (§2.4.1: version 4570, released early 2013).
const MinFirmware = 4570

// AtlasTimeoutMs is the probe timeout: replies slower than this count as
// missing (§2.4.1: 5 seconds).
const AtlasTimeoutMs = 5000

// HijackRTTThresholdMs: a CHAOS reply that does not match the letter's
// pattern AND arrives faster than this marks the VP as hijacked (§2.4.1:
// 7 ms, following Fan et al.).
const HijackRTTThresholdMs = 7

// VP is one vantage point.
type VP struct {
	ID       VPID
	ASN      topo.ASN
	City     geo.City
	Firmware int
	// Hijacked VPs have their root queries intercepted by a third-party
	// resolver; the platform does not know this a priori — the cleaning
	// stage must detect it from reply patterns and RTTs.
	Hijacked bool
	// Phase staggers this VP's probing within the interval, mimicking
	// Atlas probes starting at arbitrary times.
	Phase int
}

// Population is the set of vantage points.
type Population struct {
	VPs []VP
}

// PopulationConfig controls VP generation.
type PopulationConfig struct {
	N    int
	Seed int64
	// RegionWeights biases VP placement; nil selects AtlasRegionWeights.
	RegionWeights map[geo.Region]float64
	// OldFirmwareFrac is the fraction of VPs running pre-4570 firmware.
	OldFirmwareFrac float64
	// HijackedFrac is the fraction of VPs behind interception (the paper
	// found 74 of 9363, <1%).
	HijackedFrac float64
}

// AtlasRegionWeights reflects RIPE Atlas's documented Europe bias.
var AtlasRegionWeights = map[geo.Region]float64{
	geo.Europe:       0.62,
	geo.NorthAmerica: 0.17,
	geo.Asia:         0.09,
	geo.SouthAmerica: 0.04,
	geo.Oceania:      0.03,
	geo.MiddleEast:   0.03,
	geo.Africa:       0.02,
}

// NewPopulation places VPs on stub ASes of the graph with the configured
// regional bias. Generation is deterministic per config.
func NewPopulation(g *topo.Graph, cfg PopulationConfig) (*Population, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("atlas: population size %d", cfg.N)
	}
	weights := cfg.RegionWeights
	if weights == nil {
		weights = AtlasRegionWeights
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Bucket stub ASes by region.
	byRegion := map[geo.Region][]topo.ASN{}
	for _, asn := range g.StubASNs() {
		r := g.AS(asn).City.Region
		byRegion[r] = append(byRegion[r], asn)
	}
	if len(byRegion) == 0 {
		return nil, fmt.Errorf("atlas: topology has no stub ASes")
	}
	pickRegion := func() geo.Region {
		x := rng.Float64()
		var cum float64
		for r := geo.Region(0); r < 7; r++ {
			cum += weights[r]
			if x < cum && len(byRegion[r]) > 0 {
				return r
			}
		}
		// Fall back to any populated region.
		for r := geo.Region(0); r < 7; r++ {
			if len(byRegion[r]) > 0 {
				return r
			}
		}
		return geo.Europe
	}

	p := &Population{VPs: make([]VP, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		region := pickRegion()
		asns := byRegion[region]
		asn := asns[rng.Intn(len(asns))]
		vp := VP{
			ID:       VPID(i),
			ASN:      asn,
			City:     g.AS(asn).City,
			Firmware: 4740,
			Phase:    rng.Intn(4),
		}
		if rng.Float64() < cfg.OldFirmwareFrac {
			vp.Firmware = 4460 + rng.Intn(100) // pre-4570
		}
		if rng.Float64() < cfg.HijackedFrac {
			vp.Hijacked = true
		}
		p.VPs[i] = vp
	}
	return p, nil
}

// N returns the population size.
func (p *Population) N() int { return len(p.VPs) }
