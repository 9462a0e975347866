package analysis

import (
	"testing"
)

func TestValidateCatchments(t *testing.T) {
	ev, d := getShared(t)
	// A quiet bin well before event 1.
	res, err := New(ev, d).ValidateCatchments('K', 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compared < 100 {
		t.Fatalf("compared only %d VPs: %+v", res.Compared, res)
	}
	// CHAOS mapping must agree with forwarding traces for (nearly) every
	// clean VP — the Fan et al. result the methodology rests on.
	if frac := res.AgreementFrac(); frac < 0.98 {
		t.Errorf("agreement = %.3f (%+v)", frac, res)
	}
	// Cleaning caught the hijacked VPs before they could pollute the
	// comparison.
	hijacked := 0
	for _, vp := range ev.Population.VPs {
		if vp.Hijacked {
			hijacked++
		}
	}
	if hijacked > 0 && res.HijackedCaught == 0 {
		t.Error("no hijacked VPs caught by cleaning")
	}
	if _, err := New(ev, d).ValidateCatchments('Z', 20); err == nil {
		t.Error("unknown letter accepted")
	}
	if _, err := New(ev, d).ValidateCatchments('K', -1); err == nil {
		t.Error("bad bin accepted")
	}
}

func TestValidationEmptyResult(t *testing.T) {
	r := &CatchmentValidationResult{}
	if r.AgreementFrac() != 0 {
		t.Error("empty agreement should be 0")
	}
}

func TestCatchmentOptimality(t *testing.T) {
	ev, d := getShared(t)
	res, err := New(ev, d).CatchmentOptimality('K', 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.VPs < 100 {
		t.Fatalf("VPs = %d", res.VPs)
	}
	if res.OptimalFrac <= 0 || res.OptimalFrac > 1 {
		t.Errorf("optimal fraction = %v", res.OptimalFrac)
	}
	// BGP is not latency-aware: a meaningful share of VPs take detours,
	// but the mean inflation stays bounded (sites are spread worldwide).
	if res.OptimalFrac > 0.99 {
		t.Errorf("optimal fraction %v implausibly perfect for policy routing", res.OptimalFrac)
	}
	if res.MeanInflation < 0 || res.MeanInflation > 400 {
		t.Errorf("mean inflation = %v ms", res.MeanInflation)
	}
	if res.P90Inflation < res.MeanInflation {
		t.Errorf("p90 %v below mean %v", res.P90Inflation, res.MeanInflation)
	}
	if res.WorstInflation < res.P90Inflation {
		t.Errorf("worst %v below p90 %v", res.WorstInflation, res.P90Inflation)
	}
	if _, err := New(ev, d).CatchmentOptimality('Z', 200); err == nil {
		t.Error("unknown letter accepted")
	}
}
