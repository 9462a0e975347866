package atlastest

import (
	"math"
	"testing"

	"github.com/rootevent/anycastddos/internal/atlas"
	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/stats"
)

// funcWorld adapts a closure to atlas.World.
type funcWorld struct {
	fn func(vp *atlas.VP, letter byte, minute int) atlas.Outcome
}

func (f *funcWorld) ProbeOutcome(vp *atlas.VP, letter byte, minute int) atlas.Outcome {
	return f.fn(vp, letter, minute)
}

// PerProbeOnly hides every method of a world but ProbeOutcome, so a campaign
// over it probes one minute at a time even when w is an atlas.WalkWorld.
func PerProbeOnly(w atlas.World) atlas.World { return &funcWorld{fn: w.ProbeOutcome} }

// walkingWorld answers walks from a per-probe world.
type walkingWorld struct{ atlas.World }

// Walking gives a per-probe world a walk method of its own — written against
// the exported Walk API the way a real walk world is, not through the
// campaign's per-probe adapter — so tests can offer one world both ways.
func Walking(w atlas.World) atlas.WalkWorld { return walkingWorld{w} }

func (ww walkingWorld) ProbeWalk(vp *atlas.VP, letter byte, first, interval int, w *atlas.Walk) {
	// Consecutive probes mostly repeat an identity; register a string again
	// only when it changes.
	last, lastID := "", uint32(0)
	for i := range w.Probes {
		out := ww.ProbeOutcome(vp, letter, first+i*interval)
		if out.ChaosTXT != last {
			last, lastID = out.ChaosTXT, w.AddIdentities([]string{out.ChaosTXT})
		}
		w.Probes[i].Set(out.Status, out.Site, out.Server, out.RTTms, lastID)
	}
}

// ScriptedWorld scripts a deterministic mixture of outcomes: clean successes
// across several sites/servers, RCODE errors, timeouts, over-threshold
// successes (cleaned into timeouts), RTTs past the uint16 ceiling, malformed
// identities at plausible RTTs (kept, site dropped), and genuinely hijacked
// VPs (mismatched identity at < 7 ms).
func ScriptedWorld() atlas.World {
	mismatch := func(letter byte) byte {
		if letter == 'K' {
			return 'E'
		}
		return 'K'
	}
	return &funcWorld{fn: func(vp *atlas.VP, letter byte, minute int) atlas.Outcome {
		h := int(vp.ID)*2654435 + int(letter)*9176 + minute*131
		if int(vp.ID)%23 == 7 && h%6 == 0 {
			// Hijacked VP: wrong identity at an implausibly fast RTT.
			return atlas.Outcome{Status: atlas.OK, Site: 0, Server: 1, RTTms: 3,
				ChaosTXT: chaos.MustFormat(mismatch(letter), "AMS", 1)}
		}
		switch h % 11 {
		case 0:
			return atlas.Outcome{Status: atlas.Timeout}
		case 1:
			return atlas.Outcome{Status: atlas.RCodeErr}
		case 2: // too slow: probe layer converts to Timeout
			return atlas.Outcome{Status: atlas.OK, Site: 1, Server: 1, RTTms: 6000.5,
				ChaosTXT: chaos.MustFormat(letter, "AMS", 1)}
		case 3: // past the uint16 ceiling: sentinel in raw cells
			return atlas.Outcome{Status: atlas.OK, Site: 1, Server: 2, RTTms: 70001.5,
				ChaosTXT: chaos.MustFormat(letter, "AMS", 2)}
		case 4: // malformed identity at plausible RTT: kept, no site
			return atlas.Outcome{Status: atlas.OK, Site: 2, Server: 2, RTTms: 40.5,
				ChaosTXT: chaos.MustFormat(mismatch(letter), "AMS", 2)}
		default:
			site := h % 5
			server := 1 + h%3
			return atlas.Outcome{Status: atlas.OK, Site: site, Server: server,
				RTTms:    10 + float64(h%400)/3,
				ChaosTXT: chaos.MustFormat(letter, "AMS", server)}
		}
	}}
}

// SameSeries fails the test unless the two series agree in shape and every
// bin value is bit-identical (Float64bits, so NaN placement counts too).
func SameSeries(t testing.TB, label string, got, want *stats.Series) {
	t.Helper()
	if got.Name != want.Name || got.StartMinute != want.StartMinute ||
		got.BinMinutes != want.BinMinutes || len(got.Values) != len(want.Values) {
		t.Fatalf("%s: shape mismatch: got %s/%d/%d/%d want %s/%d/%d/%d", label,
			got.Name, got.StartMinute, got.BinMinutes, len(got.Values),
			want.Name, want.StartMinute, want.BinMinutes, len(want.Values))
	}
	for b := range got.Values {
		if math.Float64bits(got.Values[b]) != math.Float64bits(want.Values[b]) {
			t.Fatalf("%s: bin %d: got %v (bits %x), want %v (bits %x)", label, b,
				got.Values[b], math.Float64bits(got.Values[b]),
				want.Values[b], math.Float64bits(want.Values[b]))
		}
	}
}
