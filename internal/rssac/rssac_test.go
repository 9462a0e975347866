package rssac

import (
	"math"
	"testing"

	"github.com/rootevent/anycastddos/internal/attack"
)

func TestDayName(t *testing.T) {
	if DayName(0) != "2015-11-30" || DayName(1) != "2015-12-01" {
		t.Errorf("day names = %q, %q", DayName(0), DayName(1))
	}
	if DayName(5) != "2015-11-30+5d" {
		t.Errorf("DayName(5) = %q", DayName(5))
	}
}

func TestAccumulatorBaselineOnly(t *testing.T) {
	a := NewAccumulator(2, attack.DefaultSourceMix)
	// A quiet letter: 40 kq/s all day, every response sent.
	for m := 0; m < 2880; m++ {
		a.Record('L', Minute{Minute: m, LegitServedQPS: 40_000, ResponseQPS: 40_000})
	}
	rs := a.Finalize('L')
	if len(rs) != 2 {
		t.Fatalf("reports = %d", len(rs))
	}
	wantDay := 40_000.0 * 86400
	for d, r := range rs {
		if math.Abs(r.Queries-wantDay) > 1 {
			t.Errorf("day %d queries = %v, want %v", d, r.Queries, wantDay)
		}
		if math.Abs(r.Responses-wantDay) > 1 {
			t.Errorf("day %d responses = %v", d, r.Responses)
		}
		// Unique sources stay at baseline without attack traffic.
		if math.Abs(r.UniqueSources-2_900_000) > 1 {
			t.Errorf("day %d unique = %v", d, r.UniqueSources)
		}
	}
}

func TestAccumulatorAttackDay(t *testing.T) {
	a := NewAccumulator(2, attack.DefaultSourceMix)
	ev := attack.Events()[0]
	for m := 0; m < 2880; m++ {
		rec := Minute{Minute: m, LegitServedQPS: 40_000, ResponseQPS: 40_000}
		if ev.Contains(m) {
			rec.AttackServedQPS = 2_000_000 // accepted share of the flood
			rec.AttackQueryBytes = ev.QueryBytes
			rec.AttackResponseBytes = ev.ResponseBytes
			rec.ResponseQPS = 40_000 + 2_000_000*0.4 // RRL drops 60%
		}
		a.Record('A', rec)
	}
	rs := a.Finalize('A')
	day0, day1 := rs[0], rs[1]
	baseline := 40_000.0 * 86400
	attackQ := 2_000_000.0 * 160 * 60
	if math.Abs(day0.Queries-(baseline+attackQ)) > attackQ*0.01 {
		t.Errorf("day0 queries = %g, want ~%g", day0.Queries, baseline+attackQ)
	}
	if math.Abs(day1.Queries-baseline) > 1 {
		t.Errorf("day1 queries = %g, want %g (no attack)", day1.Queries, baseline)
	}
	// Unique sources explode on the attack day (Table 3: 100x-300x).
	ratio := day0.UniqueSources / 2_900_000
	if ratio < 50 {
		t.Errorf("unique-IP ratio = %.1f, want > 50", ratio)
	}
	if day1.UniqueSources != 2_900_000 {
		t.Errorf("day1 unique = %v", day1.UniqueSources)
	}
	// The attack's size bin (32-47 B) dominates the day-0 query histogram.
	if got := day0.QuerySizes.ArgMax(); got != 2 {
		t.Errorf("day0 query ArgMax bin = %d, want 2 (32-47B)", got)
	}
	lo, hi := day0.QuerySizes.BinRange(day0.QuerySizes.ArgMax())
	if lo != 32 || hi != 48 {
		t.Errorf("attack bin = [%v,%v)", lo, hi)
	}
	// Responses fewer than queries on the attack day (RRL, §3.1).
	if day0.Responses >= day0.Queries {
		t.Errorf("day0 responses %g >= queries %g", day0.Responses, day0.Queries)
	}
}

func TestRecordOutOfRangeIgnored(t *testing.T) {
	a := NewAccumulator(1, attack.DefaultSourceMix)
	a.Record('K', Minute{Minute: -5, LegitServedQPS: 1000})
	a.Record('K', Minute{Minute: 1500, LegitServedQPS: 1000})
	a.Record('K', Minute{Minute: 10, LegitServedQPS: 1000, ResponseQPS: 1000})
	rs := a.Finalize('K')
	if len(rs) != 1 {
		t.Fatalf("reports = %d", len(rs))
	}
	if rs[0].Queries != 60_000 {
		t.Errorf("queries = %v, want 60000 (one in-range minute)", rs[0].Queries)
	}
}

func TestFinalizeUnknownLetter(t *testing.T) {
	a := NewAccumulator(1, attack.DefaultSourceMix)
	if rs := a.Finalize('Q'); rs != nil {
		t.Errorf("Finalize(Q) = %v", rs)
	}
}

func TestSyntheticBaseline(t *testing.T) {
	r := SyntheticBaseline('K', 40_000, 0)
	if r.Queries != 40_000*86400 {
		t.Errorf("baseline queries = %v", r.Queries)
	}
	if r.QuerySizes.Total() == 0 || r.ResponseSizes.Total() == 0 {
		t.Error("baseline histograms empty")
	}
	// Baseline histogram peaks well below the attack bins.
	if r.QuerySizes.ArgMax() > 3 {
		t.Errorf("baseline query peak bin = %d", r.QuerySizes.ArgMax())
	}
	m := MeanBaseline('K', 40_000, 7)
	if m.Queries != r.Queries {
		t.Errorf("mean baseline = %v, want %v", m.Queries, r.Queries)
	}
}

func TestGbpsFromQueries(t *testing.T) {
	// 5 Mq/s of 32+40=72-byte packets for one second = 2.88 Gb/s.
	got := GbpsFromQueries(5_000_000, 32, 1)
	want := 5_000_000 * 72 * 8 / 1e9
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Gbps = %v, want %v", got, want)
	}
	if GbpsFromQueries(100, 32, 0) != 0 {
		t.Error("zero-interval should return 0")
	}
	// Sanity vs Table 3: A-Root's 5.12 Mq/s delta over 160 min was
	// ~3.4 Gb/s; our converter should land within 20%.
	queries := 5.12e6 * 160 * 60
	gbps := GbpsFromQueries(queries, 32, 86400) * 86400 / (160 * 60)
	if gbps < 2.5 || gbps > 4.5 {
		t.Errorf("A-Root event bitrate = %.2f Gb/s, want ~3.4", gbps)
	}
}
