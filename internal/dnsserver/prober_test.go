package dnsserver

import (
	"net"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/chaos"
	"github.com/rootevent/anycastddos/internal/dnswire"
)

// echoServer answers every query by echoing it back with QR set (an empty
// NOERROR response), except that it ignores the queries at the positions
// drop selects. It reports the query ID of every datagram it receives.
func echoServer(t *testing.T, drop func(k int) bool) (*net.UDPAddr, <-chan uint16) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(chan uint16, 64)
	done := make(chan struct{})
	t.Cleanup(func() { conn.Close(); <-done })
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for k := 0; ; k++ {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			ids <- uint16(buf[0])<<8 | uint16(buf[1])
			if drop(k) {
				continue
			}
			buf[2] |= 0x80
			conn.WriteToUDP(buf[:n], from)
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr), ids
}

// TestProberSeedSequenceGolden pins a seeded prober's draws to the values
// the prober produced before its paths were merged (recorded at the parent
// commit): the first eight backoff delays of NewProber(7), the query IDs
// its first eight probes put on the wire, and the IDs of four probes whose
// first attempt is dropped, which interleave ID and jitter draws through
// the retry loop.
func TestProberSeedSequenceGolden(t *testing.T) {
	wantDelays := []time.Duration{191889215, 246301434, 496555026, 1529249739, 1698235543, 1146155948, 1354214698, 1342682051}
	p := NewProber(7)
	for i, want := range wantDelays {
		if got := p.backoffDelay(i); got != want {
			t.Errorf("backoff %d = %d, want %d", i, got, want)
		}
	}

	addr, ids := echoServer(t, func(int) bool { return false })
	p = NewProber(7)
	for i, want := range []uint16{16926, 1774, 51629, 4543, 51268, 15604, 59456, 358} {
		if _, err := p.Probe(addr, 'K'); err != nil {
			t.Fatal(err)
		}
		if got := <-ids; got != want {
			t.Errorf("probe %d sent ID %d, want %d", i, got, want)
		}
	}

	addr, ids = echoServer(t, func(k int) bool { return k%2 == 0 })
	p = NewProber(7)
	p.Retries, p.Backoff, p.MaxBackoff, p.Timeout = 1, time.Millisecond, 4*time.Millisecond, 30*time.Millisecond
	for i := 0; i < 4; i++ {
		if _, err := p.Probe(addr, 'K'); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []uint16{16926, 51629, 4543, 15604, 59456, 33208, 16188, 26961} {
		if got := <-ids; got != want {
			t.Errorf("attempt %d sent ID %d, want %d", i, got, want)
		}
	}
}

// referenceParse is the prober's reply parse as it stood on the allocating
// codec: Decode, then the first TXT answer's first string.
func referenceParse(t *testing.T, pkt []byte, letter byte, rtt time.Duration) (ProbeResult, error) {
	resp, err := dnswire.Decode(pkt)
	if err != nil {
		t.Fatalf("Decode rejects what DecodeInto accepted: %v", err)
	}
	res := ProbeResult{RTT: rtt, RCode: resp.Header.RCode, Truncated: resp.Header.Truncated}
	for _, rr := range resp.Answers {
		if rr.Type != dnswire.TypeTXT {
			continue
		}
		strs, err := rr.TXT()
		if err != nil || len(strs) == 0 {
			return res, ErrBadReply
		}
		res.RawTXT = strs[0]
		if ident, perr := chaos.Parse(letter, strs[0]); perr == nil {
			res.Identity = ident
			res.Matched = true
		}
		break
	}
	return res, nil
}

// FuzzProbeReply holds the shared reply parser to the Decode-based
// reference on arbitrary reply bytes, through one reused decode scratch.
func FuzzProbeReply(f *testing.F) {
	reply := func(rcode dnswire.RCode, tc bool, txts ...[]string) []byte {
		resp := dnswire.NewResponse(dnswire.NewQuery(1, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS), rcode)
		resp.Header.Truncated = tc
		for _, strs := range txts {
			rr, err := dnswire.MakeTXT("hostname.bind", dnswire.ClassCHAOS, 0, strs...)
			if err != nil {
				f.Fatal(err)
			}
			resp.Answers = append(resp.Answers, rr)
		}
		return mustPack(f, resp)
	}
	f.Add(reply(dnswire.RCodeNoError, false, []string{chaos.MustFormat('K', "AMS", 2)}))
	f.Add(reply(dnswire.RCodeNoError, false, []string{"dnsmasq-2.76"}, []string{chaos.MustFormat('K', "LHR", 1)}))
	f.Add(reply(dnswire.RCodeNoError, false, []string{}))
	f.Add(reply(dnswire.RCodeNoError, true))
	f.Add(reply(dnswire.RCodeRefused, false))
	f.Add([]byte{1, 2, 3})

	var m dnswire.Message
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if dnswire.DecodeInto(pkt, &m) != nil {
			if _, err := dnswire.Decode(pkt); err == nil {
				t.Fatal("DecodeInto rejects what Decode accepts")
			}
			return
		}
		got, gotErr := parseReply(&m, 'K', time.Millisecond)
		want, wantErr := referenceParse(t, pkt, 'K', time.Millisecond)
		if gotErr != wantErr || got != want {
			t.Fatalf("parseReply = %+v, %v; reference %+v, %v", got, gotErr, want, wantErr)
		}
	})
}
