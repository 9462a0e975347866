package chaos

import "testing"

// FuzzParseAny guards the identity parser against arbitrary reply strings
// under any letter (hijacked VPs return attacker-controlled text, §2.4.1).
func FuzzParseAny(f *testing.F) {
	f.Add("ns1.ams.k.ripe.net")
	f.Add("rootns-lax1.verisign.com")
	f.Add("dnsmasq-2.76")
	f.Add("")
	f.Fuzz(func(t *testing.T, txt string) {
		for _, l := range Letters() {
			id, err := Parse(l, txt)
			if err != nil {
				continue
			}
			if len(id.Site) != 3 || id.Server < 1 {
				t.Fatalf("malformed identity accepted: %+v from %q", id, txt)
			}
			// A parsed identity must re-format and re-parse to itself.
			out, err := Format(id.Letter, id.Site, id.Server)
			if err != nil {
				t.Fatalf("parsed identity does not format: %v", err)
			}
			id2, err := Parse(id.Letter, out)
			if err != nil || id2 != id {
				t.Fatalf("identity not stable: %+v -> %q -> %+v (%v)", id, out, id2, err)
			}
		}
	})
}

// FuzzMatchesAgreesWithParse pins Matches, the allocation-free check the
// atlas cleaning stage runs, to Parse: for any letter and any reply the two
// must give the same verdict.
func FuzzMatchesAgreesWithParse(f *testing.F) {
	for _, txt := range []string{
		"ns1.ams.k.ripe.net", "  NS3.AMS.K.RIPE.NET \n", "ns+1.ams.k.ripe.net",
		"ns-1.ams.k.ripe.net", "ns0.ams.k.ripe.net", "ns01.ams.k.ripe.net",
		"ns99999999999999999999.ams.k.ripe.net", "ns1.ams.\u212a.ripe.net",
		"groot-ams--1.disa.mil", "groot-ams-2.disa.mil", "ams1b.c.root-servers.org",
		"1.f.root-servers.org", "rootns-lax1.verisign.com", "dnsmasq-2.76", "",
	} {
		f.Add(txt)
	}
	f.Fuzz(func(t *testing.T, txt string) {
		for _, l := range append(Letters(), 'Q', 0) {
			_, err := Parse(l, txt)
			if got := Matches(l, txt); got != (err == nil) {
				t.Fatalf("Matches(%c, %q) = %v, Parse error = %v", l, txt, got, err)
			}
		}
	})
}
