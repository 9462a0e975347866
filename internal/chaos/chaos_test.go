package chaos

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatParseRoundTripAllLetters(t *testing.T) {
	sites := []string{"AMS", "LHR", "FRA", "NRT", "IAD", "SYD"}
	for _, letter := range Letters() {
		for _, site := range sites {
			for _, server := range []int{1, 2, 3, 12} {
				txt, err := Format(letter, site, server)
				if err != nil {
					t.Fatalf("Format(%c,%s,%d): %v", letter, site, server, err)
				}
				id, err := Parse(letter, txt)
				if err != nil {
					t.Fatalf("Parse(%c,%q): %v", letter, txt, err)
				}
				want := Identity{Letter: letter, Site: site, Server: server}
				if id != want {
					t.Errorf("round trip %c/%s/%d -> %+v", letter, site, server, id)
				}
			}
		}
	}
}

func TestPatternsAreDistinctAcrossLetters(t *testing.T) {
	// A reply from letter X must not parse as any other letter; otherwise
	// catchment mapping would mis-attribute sites.
	for _, from := range Letters() {
		txt := MustFormat(from, "AMS", 1)
		for _, as := range Letters() {
			if as == from {
				continue
			}
			if Matches(as, txt) {
				t.Errorf("reply %q from %c also parses as %c", txt, from, as)
			}
		}
	}
}

func TestParseRejectsHijackedReplies(t *testing.T) {
	// Strings a third-party (hijacking) resolver might return.
	bogus := []string{
		"", "localhost", "dnsmasq-2.76", "google-public-dns-a.google.com",
		"ns1.k.ripe.net",          // missing site label
		"ns0.ams.k.ripe.net",      // server index 0 invalid
		"nsX.ams.k.ripe.net",      // non-numeric
		"ns1.amst.k.ripe.net",     // 4-letter site
		"ns1.am1.k.ripe.net",      // digit inside site code
		"rootns-ams.verisign.com", // A pattern without server number
	}
	for _, txt := range bogus {
		if Matches('K', txt) {
			t.Errorf("Matches(K, %q) = true, want false", txt)
		}
	}
}

func TestParseCaseAndSpaceInsensitive(t *testing.T) {
	id, err := Parse('K', "  NS3.AMS.K.RIPE.NET \n")
	if err != nil || id.Site != "AMS" || id.Server != 3 {
		t.Errorf("Parse uppercase = %+v, %v", id, err)
	}
}

func TestFormatErrors(t *testing.T) {
	if _, err := Format('Z', "AMS", 1); !errors.Is(err, ErrUnknownLetter) {
		t.Errorf("unknown letter err = %v", err)
	}
	if _, err := Format('K', "AMS", 0); err == nil {
		t.Error("server 0 should fail")
	}
	if _, err := Format('K', "AMST", 1); err == nil {
		t.Error("4-letter site should fail")
	}
	if _, err := Format('K', "A1S", 1); err == nil {
		t.Error("site with digit should fail")
	}
}

func TestParseUnknownLetter(t *testing.T) {
	if _, err := Parse('Q', "x"); !errors.Is(err, ErrUnknownLetter) {
		t.Errorf("err = %v", err)
	}
}

func TestIdentityStrings(t *testing.T) {
	id := Identity{Letter: 'K', Site: "AMS", Server: 2}
	if id.String() != "K-AMS-S2" {
		t.Errorf("String = %q", id.String())
	}
	if id.SiteName() != "K-AMS" {
		t.Errorf("SiteName = %q", id.SiteName())
	}
}

func TestLettersComplete(t *testing.T) {
	ls := Letters()
	if len(ls) != 13 || ls[0] != 'A' || ls[12] != 'M' {
		t.Errorf("Letters() = %v", ls)
	}
	for _, l := range ls {
		if lookup(l) == nil {
			t.Errorf("letter %c has no pattern", l)
		}
	}
}

// Property: Format->Parse is the identity for any valid (letter, site,
// server) triple.
func TestRoundTripProperty(t *testing.T) {
	letters := Letters()
	f := func(li uint8, a, b, c uint8, server uint16) bool {
		letter := letters[int(li)%len(letters)]
		site := string([]byte{'A' + a%26, 'A' + b%26, 'A' + c%26})
		srv := int(server%200) + 1
		txt, err := Format(letter, site, srv)
		if err != nil {
			return false
		}
		id, err := Parse(letter, txt)
		return err == nil && id.Letter == letter && id.Site == site && id.Server == srv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Parse never panics on arbitrary input and never fabricates a
// site code that was not three letters.
func TestParseRobustness(t *testing.T) {
	f := func(txt string) bool {
		for _, l := range Letters() {
			id, err := Parse(l, txt)
			if err == nil {
				if len(id.Site) != 3 || id.Server < 1 {
					return false
				}
				if strings.ToUpper(id.Site) != id.Site {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFormatWireStrings pins every letter's convention to its literal wire
// form, so the pattern table cannot drift while still round-tripping.
func TestFormatWireStrings(t *testing.T) {
	want := map[byte]string{
		'A': "rootns-ams2.verisign.com",
		'B': "b2.ams.isi.edu",
		'C': "ams2b.c.root-servers.org",
		'D': "d2.ams.droot.maryland.edu",
		'E': "e2.ams.eroot.nasa.gov",
		'F': "ams2.f.root-servers.org",
		'G': "groot-ams-2.disa.mil",
		'H': "h2.ams.aos.arl.army.mil",
		'I': "s2.ams.i.root-servers.org",
		'J': "rootnsj-ams2.verisign.com",
		'K': "ns2.ams.k.ripe.net",
		'L': "ams2.l.root-servers.org",
		'M': "m2.ams.wide.ad.jp",
	}
	for _, l := range Letters() {
		if got := MustFormat(l, "AMS", 2); got != want[l] {
			t.Errorf("MustFormat(%c, AMS, 2) = %q, want %q", l, got, want[l])
		}
	}
}

// TestMatchesDoesNotAllocate guards the atlas cleaning stage's per-probe
// check: a well-formed wire-form identity validates without touching the
// heap, for every letter's convention.
func TestMatchesDoesNotAllocate(t *testing.T) {
	for _, l := range Letters() {
		txt := MustFormat(l, "AMS", 12)
		allocs := testing.AllocsPerRun(100, func() {
			if !Matches(l, txt) {
				t.Fatalf("Matches(%c, %q) = false", l, txt)
			}
		})
		if allocs != 0 {
			t.Errorf("Matches(%c, %q) allocates %v per call, want 0", l, txt, allocs)
		}
	}
}

func BenchmarkMatchesK(b *testing.B) {
	txt := MustFormat('K', "AMS", 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Matches('K', txt) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkParseK(b *testing.B) {
	txt := MustFormat('K', "AMS", 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse('K', txt); err != nil {
			b.Fatal(err)
		}
	}
}
