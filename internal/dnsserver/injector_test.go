package dnsserver

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/rootevent/anycastddos/internal/dnswire"
)

// TestInjectorMatchesLegacy checks the in-process lane returns the
// oracle's wire replies and books the same stats a reader worker would.
func TestInjectorMatchesLegacy(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1})
	in := s.NewInjector()
	o := &oracle{identity: s.Identity()}
	srcAP := netip.MustParseAddrPort("10.0.0.9:5353")

	queries := []*dnswire.Message{
		dnswire.NewQuery(5, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS),
		dnswire.NewQuery(6, "www.336901.com", dnswire.TypeA, dnswire.ClassINET),
	}
	for _, m := range queries {
		name := m.Questions[0].Name
		pkt := mustPack(t, m)
		want, ok := o.reply(pkt, srcAP)
		if !ok {
			t.Fatalf("%s: oracle refused", name)
		}
		got, sent := in.Inject(pkt, srcAP)
		if !sent {
			t.Fatalf("%s: injector refused", name)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: reply bytes differ\noracle %x\ninject %x", name, want, got)
		}
	}

	received, answered, _, _ := s.Stats()
	if received != 2 || answered != 2 {
		t.Fatalf("stats received=%d answered=%d, want 2 and 2", received, answered)
	}
}

// TestInjectorLossCoin checks injected traffic obeys the seeded loss model.
func TestInjectorLossCoin(t *testing.T) {
	s := startServer(t, Start, Config{Letter: 'K', Site: "AMS", Server: 1, LossProb: 0.4, Seed: 9})
	in := s.NewInjector()
	srcAP := netip.MustParseAddrPort("10.0.0.9:5353")
	pkt := mustPack(t, dnswire.NewQuery(7, "www.336901.com", dnswire.TypeA, dnswire.ClassINET))
	dropped := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if _, sent := in.Inject(pkt, srcAP); !sent {
			dropped++
		}
	}
	if rate := float64(dropped) / n; rate < 0.35 || rate > 0.45 {
		t.Fatalf("injected drop rate %.3f, want 0.40±0.05", rate)
	}
}
