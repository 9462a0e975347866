package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/cmd/internal/selfexec"
	"github.com/rootevent/anycastddos/internal/core"
	"github.com/rootevent/anycastddos/internal/dnsserver"
	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/sitemgr"
)

func TestMain(m *testing.M) { selfexec.Main(m, main) }

// TestRejectedFlagsExitUsage: a flag value sitemgr.New would bend, panic
// on, or fail on after binding sockets exits 64 before anything is bound,
// with one log line naming the flag.
func TestRejectedFlagsExitUsage(t *testing.T) {
	var stderr bytes.Buffer
	log.SetOutput(&stderr)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, tc := range []struct{ flag, value string }{
		{"-samples", "-1"},
		{"-letter", "Q"},
		{"-letter", "KZ"},
		{"-min-announced", "5"},
		{"-interval", "0"},
		{"-interval", "-1s"},
		{"-rrl-rps", "-1"},
		{"-ticks", "-1"},
	} {
		stderr.Reset()
		args := []string{tc.flag, tc.value}
		if tc.flag != "-ticks" {
			// -ticks 1 bounds the run should the value be accepted.
			args = append(args, "-ticks", "1")
		}
		if code := run(args); code != core.ExitUsage {
			t.Errorf("%s %s exits %d, want %d", tc.flag, tc.value, code, core.ExitUsage)
		}
		if msg := strings.TrimSuffix(stderr.String(), "\n"); !strings.Contains(msg, tc.flag) || strings.Contains(msg, "\n") {
			t.Errorf("%s %s logs %q: want one line naming the flag", tc.flag, tc.value, msg)
		}
	}
}

// TestSiteFailover is the live failover loop over real sockets and real
// process death: the manager runs as a child serving three loopback sites;
// one site is flooded until the manager withdraws it; a real CHAOS probe
// confirms the catchment shift; the manager is SIGKILLed and its journal
// resume must keep the site withdrawn with its damping penalty; then the
// flood lifts and the site must return to rotation.
func TestSiteFailover(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	journalPath := filepath.Join(dir, "journal.bin")
	args := []string{
		"-letter", "K", "-sites", "AMS,LHR,NRT", "-seed", "7",
		"-interval", "100ms", "-fast", "-rrl-rps", "20", "-samples", "16",
		"-state", statePath, "-journal", journalPath,
	}
	// waitState polls the manager's state file until pred holds.
	waitState := func(c *selfexec.Child, pred func(*sitemgr.StateFile) bool) *sitemgr.StateFile {
		t.Helper()
		var st *sitemgr.StateFile
		exited := !c.Until(t, func() bool {
			data, err := os.ReadFile(statePath)
			if errors.Is(err, os.ErrNotExist) {
				return false
			}
			st = new(sitemgr.StateFile)
			// The file is replaced atomically: a parse failure is a bug,
			// not a torn read.
			if err == nil {
				err = json.Unmarshal(data, st)
			}
			if err != nil {
				t.Fatal(err)
			}
			return pred(st)
		})
		if exited {
			t.Fatal("the manager exited")
		}
		return st
	}

	child := selfexec.Start(t, args...)
	st := waitState(child, func(st *sitemgr.StateFile) bool {
		for _, s := range st.Sites {
			if s.State != "healthy" || !s.Announced {
				return false
			}
		}
		return true
	})
	victim := st.Sites[0]
	witness, ok := sample(st, func(s sitemgr.SampleRoute) bool { return s.Site == victim.Index })
	if !ok {
		t.Fatalf("no sampled AS routed to site %d; raise -samples", victim.Index)
	}
	probeIdentity(t, witness.Addr, victim.Name)

	stopFlood := floodAddr(t, victim.Addr)
	st = waitState(child, func(st *sitemgr.StateFile) bool { return !st.Sites[victim.Index].Announced })
	requireJournal(t, journalPath, "withdraw")
	shifted, ok := sample(st, func(s sitemgr.SampleRoute) bool { return s.ASN == witness.ASN })
	if !ok || shifted.Site == victim.Index {
		t.Fatalf("witness AS %d still routed to the withdrawn site: %+v", witness.ASN, shifted)
	}
	if shifted.Site >= 0 {
		probeIdentity(t, shifted.Addr, st.Sites[shifted.Site].Name)
	}

	// SIGKILL the manager while the site is out and resume on its journal:
	// the site must come back withdrawn and penalized, not fresh.
	child.Kill()
	if err := os.Remove(statePath); err != nil {
		t.Fatal(err)
	}
	child = selfexec.Start(t, args...)
	st = waitState(child, func(st *sitemgr.StateFile) bool { return st.Tick >= 1 })
	if s := st.Sites[victim.Index]; s.Announced || s.State == "healthy" || s.Penalty <= 0 {
		t.Fatalf("journal resume lost the withdrawal or its damping penalty: %+v", s)
	}

	stopFlood()
	st = waitState(child, func(st *sitemgr.StateFile) bool {
		s := st.Sites[victim.Index]
		return s.Announced && s.State == "healthy"
	})
	probeIdentity(t, st.Sites[victim.Index].Addr, victim.Name)
	requireJournal(t, journalPath, "announce")

	// An interrupt is the clean way to stop the manager: exit 0.
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-child.Exited
	if err := child.Kill(); err != nil {
		t.Fatalf("manager exit after interrupt: %v", err)
	}
}

// sample returns the state file's first sampled route that match accepts.
func sample(st *sitemgr.StateFile, match func(sitemgr.SampleRoute) bool) (sitemgr.SampleRoute, bool) {
	for _, s := range st.Samples {
		if match(s) {
			return s, true
		}
	}
	return sitemgr.SampleRoute{}, false
}

// probeIdentity sends a real CHAOS probe to addr and checks the site name
// in the identity it returns.
func probeIdentity(t *testing.T, addr, wantSite string) {
	t.Helper()
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := dnsserver.NewProber(1)
	p.Timeout = 2 * time.Second
	p.Retries = 2
	res, err := p.ProbeContext(context.Background(), udpAddr, 'K')
	if err != nil {
		t.Fatalf("probe %s: %v", addr, err)
	}
	if !res.Matched || res.Identity.Site != wantSite {
		t.Fatalf("probe %s: identity %q, want site %s", addr, res.RawTXT, wantSite)
	}
}

// requireJournal fails unless the journal holds a transition record with
// the given action.
func requireJournal(t *testing.T, path, action string) {
	t.Helper()
	recs, err := sitemgr.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == sitemgr.RecTransition && r.Action == action {
			return
		}
	}
	t.Fatalf("journal has no %s transition (%d records)", action, len(recs))
}

// floodAddr sends CHAOS queries to addr as fast as one goroutine can until
// stop is called or the test ends.
func floodAddr(t *testing.T, addr string) (stop func()) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := dnswire.NewQuery(99, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS).Pack()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				conn.Write(pkt)
			}
		}
	}()
	stop = sync.OnceFunc(func() {
		close(done)
		wg.Wait()
		conn.Close()
	})
	t.Cleanup(stop)
	return stop
}
