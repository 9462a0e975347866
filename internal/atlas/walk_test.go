package atlas

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"github.com/rootevent/anycastddos/internal/chaos"
)

// FuzzIdentityMemo drives the per-probe adapter's slot memo and the cleaning
// stage's verdict memo with arbitrary (server, identity) sequences: whatever
// slots collide and whatever strings nearly match, every probe keeps the
// string it was answered with and gets exactly chaos.Matches's verdict.
func FuzzIdentityMemo(f *testing.F) {
	valid := chaos.MustFormat('K', "AMS", 1)
	f.Add([]byte{1, 0, 9, 0, 1, 1, 17, 2, 1, 0})
	f.Add([]byte{0, 3, 8, 4, 16, 5, 24, 6, 0, 3, 8, 7})
	f.Add([]byte("\x02" + valid + "\x00\x0a" + strings.ToUpper(valid)))
	f.Fuzz(func(t *testing.T, script []byte) {
		// Identities the script picks from: valid ones for several servers,
		// the same in another case and padded, near misses, another letter's,
		// a resolver banner, none at all.
		pool := []string{
			valid, chaos.MustFormat('K', "AMS", 2), chaos.MustFormat('K', "LHR", 9),
			strings.ToUpper(valid), " " + valid + "\t", strings.Replace(valid, "ams", "am1", 1),
			chaos.MustFormat('E', "AMS", 1), "dnsmasq-2.76", "",
		}
		type reply struct {
			server int
			txt    string
		}
		var replies []reply
		for len(script) >= 2 {
			r := reply{server: int(int8(script[0])), txt: pool[int(script[1])%len(pool)]}
			script = script[2:]
			if int(r.server)%5 == 4 && len(script) > 0 {
				// Now and then a string of the fuzzer's own.
				n := min(int(script[0])%24, len(script)-1)
				r.txt = string(script[1 : 1+n])
				script = script[1+n:]
			}
			replies = append(replies, r)
		}
		world := &fakeWorld{fn: func(_ *VP, _ byte, minute int) Outcome {
			return Outcome{Status: OK, Server: replies[minute].server, ChaosTXT: replies[minute].txt}
		}}
		var w Walk
		w.Reset(len(replies))
		perProbe{world}.ProbeWalk(&VP{}, 'K', 0, 1, &w)
		w.beginCleaning()
		for i, r := range replies {
			if got := w.Outcome(i).ChaosTXT; got != r.txt {
				t.Fatalf("probe %d: identity %q, answered with %q", i, got, r.txt)
			}
			id := w.Probes[i].Identity
			if (id == 0) != (r.txt == "") {
				t.Fatalf("probe %d: identity %d for %q", i, id, r.txt)
			}
			if id != 0 && w.matches('K', id) != chaos.Matches('K', r.txt) {
				t.Fatalf("probe %d (server %d, %q): memo says %v, chaos.Matches %v", i, r.server, r.txt, w.matches('K', id), chaos.Matches('K', r.txt))
			}
		}
	})
}

// TestSealAssignsIDsInPairOrder checks the dense-table Seal against the
// definition: IDs number the distinct recorded (site, server) pairs in
// ascending (site, server) order — signed order, for any int16 and int8 —
// and every cell resolves back to its pair.
func TestSealAssignsIDsInPairOrder(t *testing.T) {
	d := NewDataset([]byte("EK"), []byte("EK"), 40, 0, 10, 3, 1)
	type cell struct {
		site   int16
		server int8
	}
	want := map[byte][]cell{}
	distinct := map[SiteServer]bool{}
	h := uint32(1)
	for _, l := range []byte("EK") {
		rc := d.raw[l]
		for j := range rc.site {
			h = h*1664525 + 1013904223
			c := cell{site: int16(h>>16) % 40, server: int8(h>>8) % 5}
			switch h % 11 {
			case 0:
				c = cell{site: -32768, server: -128}
			case 1:
				c = cell{site: 32767, server: 127}
			case 2:
				c = cell{site: NoSite}
			}
			rc.site[j], rc.server[j] = c.site, c.server
			want[l] = append(want[l], c)
			distinct[SiteServer{c.site, c.server}] = true
		}
	}
	d.Seal()
	var pairs []SiteServer
	for p := range distinct {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b SiteServer) int {
		return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Server, b.Server))
	})
	if !slices.Equal(d.SiteServers(), pairs) {
		t.Fatalf("interned table = %v, want %v", d.SiteServers(), pairs)
	}
	for _, l := range []byte("EK") {
		rc := d.raw[l]
		if rc.site != nil || rc.server != nil || len(rc.ids) != len(want[l]) {
			t.Fatalf("letter %c not sealed", l)
		}
		for j, c := range want[l] {
			if site, server := rc.at(d.ssTable, j); site != c.site || server != c.server {
				t.Fatalf("letter %c cell %d = (%d, %d), want (%d, %d)", l, j, site, server, c.site, c.server)
			}
		}
	}
}

// TestSealKeepsWideColumnsPastUint16 covers the fallback: more distinct
// pairs than a uint16 ID can name leaves the raw columns unsealed and
// readable.
func TestSealKeepsWideColumnsPastUint16(t *testing.T) {
	d := NewDataset([]byte("K"), []byte("K"), 300, 0, 10, 25, 1)
	rc := d.raw['K']
	if len(rc.site) <= 1<<16 {
		t.Fatalf("only %d raw cells", len(rc.site))
	}
	for j := range rc.site {
		rc.site[j], rc.server[j] = int16(j>>7), int8(j&127)
	}
	d.Seal()
	if rc.ids != nil || d.SiteServers() != nil {
		t.Fatalf("sealed %d pairs into uint16 IDs", len(d.SiteServers()))
	}
	j := len(rc.site) - 1
	if site, server := rc.at(d.ssTable, j); site != int16(j>>7) || server != int8(j&127) {
		t.Errorf("cell %d = (%d, %d) after the fallback", j, site, server)
	}
}
