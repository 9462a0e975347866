// Package attack specifies the Nov 30 / Dec 1 2015 events and generates
// their traffic at the AS granularity the simulator works in.
//
// Event parameters follow §2.3 and §3.1 of the paper: two windows
// (06:50-09:30 UTC on Nov 30 and 05:10-06:10 UTC on Dec 1), fixed query
// names (www.336901.com, then www.916yy.com), ~5 Mq/s offered per attacked
// letter, IPv4/UDP only, D-, L- and M-Root not attacked. Sources were
// spoofed: A and J together saw 895 M distinct addresses, yet the top 200
// sources carried 68% of the queries — a mix this package models as a small
// heavy-hitter set plus uniformly random spoofed /32s.
package attack

import (
	"math"
	"math/rand"

	"github.com/rootevent/anycastddos/internal/topo"
)

// Minutes from the simulation epoch 2015-11-30T00:00 UTC.
const (
	// SimMinutes covers the two observation days the paper analyzes.
	SimMinutes = 48 * 60

	// Event 1: Nov 30, 06:50-09:30 UTC (160 minutes).
	Event1Start = 6*60 + 50
	Event1End   = 9*60 + 30

	// Event 2: Dec 1, 05:10-06:10 UTC (60 minutes).
	Event2Start = 24*60 + 5*60 + 10
	Event2End   = 24*60 + 6*60 + 10
)

// Event describes one attack window.
type Event struct {
	Index       int // 1-based event number
	Name        string
	StartMinute int // inclusive
	EndMinute   int // exclusive
	QName       string
	// Wire sizes of one query/response DNS message (§3.1: queries fell in
	// the 32-47 B and 16-31 B RSSAC bins; responses in 480-495 B).
	QueryBytes    int
	ResponseBytes int
	// PerLetterQPS is the offered attack rate per attacked letter
	// (~5 Mq/s, §2.3).
	PerLetterQPS float64
}

// Duration returns the event length in minutes.
func (e Event) Duration() int { return e.EndMinute - e.StartMinute }

// Contains reports whether the given simulation minute is inside the event.
func (e Event) Contains(minute int) bool {
	return minute >= e.StartMinute && minute < e.EndMinute
}

// Schedule is a complete attack scenario: the event windows and the set of
// letters they spare. The paper's "Generalizing" paragraph notes that
// subsequent root events differ in details but pose the same operational
// choices (§2.3); schedules make those details a parameter.
type Schedule struct {
	Name   string
	Events []Event
	// Spared letters receive no event traffic.
	Spared map[byte]bool
}

// Active returns the index of the event covering the given minute, or -1.
func (s *Schedule) Active(minute int) int {
	for i, e := range s.Events {
		if e.Contains(minute) {
			return i
		}
	}
	return -1
}

// Targeted reports whether a letter receives event traffic under this
// schedule.
func (s *Schedule) Targeted(letter byte) bool { return !s.Spared[letter] }

// Nov2015Schedule is the paper's scenario: the two windows of Nov 30 and
// Dec 1 2015, with D-, L- and M-Root not attacked (§2.3).
func Nov2015Schedule() *Schedule {
	return &Schedule{
		Name: "nov2015",
		Events: []Event{
			{
				Index: 1, Name: "2015-11-30", StartMinute: Event1Start, EndMinute: Event1End,
				QName: "www.336901.com", QueryBytes: 32, ResponseBytes: 485,
				PerLetterQPS: 5_000_000,
			},
			{
				Index: 2, Name: "2015-12-01", StartMinute: Event2Start, EndMinute: Event2End,
				QName: "www.916yy.com", QueryBytes: 31, ResponseBytes: 484,
				PerLetterQPS: 5_000_000,
			},
		},
		Spared: map[byte]bool{'D': true, 'L': true, 'M': true},
	}
}

// June2016Schedule approximates the follow-up event of 2016-06-25 the
// paper cites as future study material [50]: a single longer window, every
// letter targeted, at a lower per-letter rate. The operators' public note
// gives no per-letter volumes, so the rate here is a documented
// approximation chosen to stress mid-size sites without saturating the
// large ones — the regime where the withdraw-vs-absorb choice is sharpest.
func June2016Schedule() *Schedule {
	return &Schedule{
		Name: "june2016",
		Events: []Event{
			{
				Index: 1, Name: "2016-06-25", StartMinute: 10 * 60, EndMinute: 12*60 + 30,
				QName: "www.example-flood.com", QueryBytes: 38, ResponseBytes: 490,
				PerLetterQPS: 2_000_000,
			},
		},
		Spared: map[byte]bool{},
	}
}

// defaultSchedule backs Events; the paper's scenario.
var defaultSchedule = Nov2015Schedule()

// Events returns the default (Nov 2015) event specifications.
func Events() []Event { return defaultSchedule.Events }

// SourceMix models the observed source-address structure: HeavyShare of
// queries come from NumHeavy fixed sources (Zipf-weighted); the rest carry
// uniformly random spoofed 32-bit sources.
type SourceMix struct {
	NumHeavy   int
	HeavyShare float64
}

// DefaultSourceMix matches the Verisign report: the top 200 sources carried
// 68% of queries.
var DefaultSourceMix = SourceMix{NumHeavy: 200, HeavyShare: 0.68}

// SpoofableSpace is the number of addresses random spoofing effectively
// draws from: roughly the routed IPv4 space (~45% of 2^32) — bogon and
// martian sources are filtered on the way in. Calibrated so that A-Root's
// event-day unique-IP count saturates near the paper's 1,813 M (a ~340x
// ratio over baseline, Table 3).
const SpoofableSpace = 1.9e9

// ExpectedUniqueIPs estimates the number of distinct source addresses after
// `queries` attack queries: the heavy hitters plus the birthday-corrected
// count of uniform random draws from the spoofable space. At event scale
// this reproduces the unique-IP explosions of Table 3.
func (m SourceMix) ExpectedUniqueIPs(queries float64) float64 {
	if queries <= 0 {
		return 0
	}
	randomDraws := queries * (1 - m.HeavyShare)
	distinctRandom := SpoofableSpace * (1 - math.Exp(-randomDraws/SpoofableSpace))
	heavy := math.Min(float64(m.NumHeavy), queries*m.HeavyShare)
	return heavy + distinctRandom
}

// SampleSource draws one source address from the mix.
func (m SourceMix) SampleSource(rng *rand.Rand) uint32 {
	if rng.Float64() < m.HeavyShare && m.NumHeavy > 0 {
		// Zipf-ish: low indices much more likely. The heavy sources
		// live in a reserved /24-sized slice so they never collide with
		// the random space in expectation-relevant amounts.
		rank := int(math.Floor(math.Pow(rng.Float64(), 2) * float64(m.NumHeavy)))
		if rank >= m.NumHeavy {
			rank = m.NumHeavy - 1
		}
		return 0x0A000000 + uint32(rank)
	}
	return rng.Uint32()
}

// BackgroundShare is the fraction of the flood that enters the network
// uniformly from every stub AS: with 895 M distinct spoofed sources the
// ingress points are scattered globally, so every catchment carries some
// share of the attack regardless of where the concentrated botnet sits.
const BackgroundShare = 0.25

// Botnet places the attack origins in the topology. Spoofing hides the true
// sources from victims, but the *network locations* where attack packets
// enter determine which catchments carry the load (§2.2: "how attackers
// align with catchment"). Origins are concentrated: a Zipf-like weighting
// over a modest number of ASes reproduces the paper's uneven per-site
// stress.
type Botnet struct {
	Origins []topo.ASN
	Weights []float64 // sums to 1
}

// NewBotnet samples nOrigins stub ASes as attack ingress points with
// Zipf(1.0)-like weights. Deterministic per seed.
func NewBotnet(g *topo.Graph, nOrigins int, seed int64) *Botnet {
	rng := rand.New(rand.NewSource(seed))
	stubs := g.StubASNs()
	if nOrigins > len(stubs) {
		nOrigins = len(stubs)
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := &Botnet{Origins: stubs[:nOrigins], Weights: make([]float64, nOrigins)}
	var sum float64
	for i := range b.Weights {
		w := 1 / float64(i+1) // Zipf rank weights
		b.Weights[i] = w
		sum += w
	}
	for i := range b.Weights {
		b.Weights[i] /= sum
	}
	return b
}

// RatePerAS splits a total offered rate across origin ASes.
func (b *Botnet) RatePerAS(totalQPS float64) map[topo.ASN]float64 {
	out := make(map[topo.ASN]float64, len(b.Origins))
	for i, asn := range b.Origins {
		out[asn] += totalQPS * b.Weights[i]
	}
	return out
}

// ClientPopulation distributes legitimate query load (recursive resolvers)
// over stub ASes with a heavy-tailed weighting: a few large eyeball
// networks, many small ones.
type ClientPopulation struct {
	Weights map[topo.ASN]float64 // sums to 1 over stub ASes
}

// NewClientPopulation assigns deterministic per-AS client weights.
func NewClientPopulation(g *topo.Graph, seed int64) *ClientPopulation {
	rng := rand.New(rand.NewSource(seed))
	stubs := g.StubASNs()
	w := make(map[topo.ASN]float64, len(stubs))
	var sum float64
	for _, asn := range stubs {
		// Log-normal-ish heavy tail.
		v := math.Exp(rng.NormFloat64() * 1.2)
		w[asn] = v
		sum += v
	}
	for asn := range w {
		w[asn] /= sum
	}
	return &ClientPopulation{Weights: w}
}
