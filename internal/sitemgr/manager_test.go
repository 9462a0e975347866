package sitemgr

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
	"github.com/rootevent/anycastddos/internal/rrl"
	"github.com/rootevent/anycastddos/internal/topo"
)

// fastFSM is tuned so e2e tests converge in a handful of ticks.
func fastFSM() Config {
	return Config{
		StressTicks: 1, FailTicks: 2, RecoverTicks: 2, DrainTicks: 1,
		ReprobeTicks: 2, ProbationTicks: 2, PenaltyHalfLife: 2,
	}
}

// testManagerConfig is a three-site deployment with RRL tight enough that
// a loopback flood both starves the health probes (flood and probes share
// the 127.0.0.1 RRL bucket) and spikes the server's RRL-drop counter —
// one real flood fires both signal families at once.
func testManagerConfig(t *testing.T) ManagerConfig {
	t.Helper()
	return ManagerConfig{
		Letter:       'K',
		Sites:        []string{"AMS", "LHR", "NRT"},
		Seed:         7,
		FSM:          fastFSM(),
		ProbeTimeout: 300 * time.Millisecond,
		RRL:          &rrl.Config{ResponsesPerSecond: 20, Burst: 20, SlipRatio: 0, PrefixBits: 32},
	}
}

// sampleASNs picks n spread-out ASNs to publish in the state file.
func sampleASNs(n int) []topo.ASN {
	out := make([]topo.ASN, n)
	for i := range out {
		out[i] = topo.ASN(10 + 7*i)
	}
	return out
}

// flood sends CHAOS queries to addr as fast as it can until stopped.
func flood(t *testing.T, addr string) (stop func()) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(99, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCHAOS)
	pkt, err := q.Pack()
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
			}
			conn.Write(pkt)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		conn.Close()
	}
}

// tickUntil steps the manager until pred holds or maxTicks pass.
func tickUntil(t *testing.T, m *Manager, maxTicks int, pred func() bool) bool {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < maxTicks; i++ {
		if err := m.TickOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if pred() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return pred()
}

func siteState(m *Manager, i int) string { return m.Status().Sites[i].State }

func TestManagerFloodFailover(t *testing.T) {
	cfg := testManagerConfig(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Settle healthy first.
	if !tickUntil(t, m, 10, func() bool {
		st := m.Status()
		return st.Sites[0].State == "healthy" && st.Sites[1].State == "healthy" && st.Sites[2].State == "healthy"
	}) {
		t.Fatalf("deployment never settled healthy: %+v", m.Status().Sites)
	}
	before := m.Status()
	if before.Announced != 3 {
		t.Fatalf("announced = %d", before.Announced)
	}

	// Flood site 0: RRL starves both the flood and the health probes.
	stop := flood(t, m.SiteAddr(0))
	if !tickUntil(t, m, 60, func() bool { return !m.Status().Sites[0].Announced }) {
		stop()
		t.Fatalf("flooded site never withdrawn: %+v", m.Status().Sites[0])
	}

	// The catchment waterbeds onto the survivors: every AS site 0
	// served now routes to 1 or 2.
	after := m.Status()
	if after.Sites[0].Catchment != 0 {
		t.Fatalf("withdrawn site still has catchment %d", after.Sites[0].Catchment)
	}
	if got := after.Sites[1].Catchment + after.Sites[2].Catchment; got < before.Sites[1].Catchment+before.Sites[2].Catchment {
		t.Fatalf("survivor catchment shrank: %+v", after.Sites)
	}

	// TCP to the withdrawn site is drained: a fresh connection is
	// refused or immediately closed.
	if conn, err := net.Dial("tcp", m.SiteAddr(0)); err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := conn.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("withdrawn site still serves TCP")
		}
		conn.Close()
	}

	// Flood ends; the site re-proves health and returns to rotation.
	stop()
	if !tickUntil(t, m, 120, func() bool {
		s := m.Status().Sites[0]
		return s.Announced && (s.State == "healthy" || s.State == "probation")
	}) {
		t.Fatalf("site never re-announced after flood: %+v", m.Status().Sites[0])
	}
}

func TestManagerMinAnnouncedFloor(t *testing.T) {
	cfg := testManagerConfig(t)
	cfg.Sites = []string{"AMS", "LHR"}
	cfg.MinAnnounced = 2
	dir := t.TempDir()
	cfg.JournalPath = filepath.Join(dir, "journal.bin")
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	stop := flood(t, m.SiteAddr(0))
	defer stop()

	// The floor holds: the flooded site is never withdrawn, it absorbs.
	sawAbsorb := false
	tickUntil(t, m, 30, func() bool {
		recs, err := ReadJournal(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Type == RecAbsorb {
				sawAbsorb = true
			}
			if r.Type == RecTransition && r.Action == "withdraw" {
				t.Fatalf("floor violated: %+v", r)
			}
		}
		return sawAbsorb
	})
	if !sawAbsorb {
		t.Fatal("no absorb decision journaled under flood at the floor")
	}
	if got := m.Status().Announced; got != 2 {
		t.Fatalf("announced = %d, want 2 (floor)", got)
	}
}

// TestManagerStoppedServerWithdrawn closes site 1's server once the
// deployment is healthy. Its probes fail and, with no worker reading, its
// counters stay at zero; the server's own report that it stopped reading
// corroborates the probes, so the site leaves rotation in exactly
// StressTicks + FailTicks + DrainTicks ticks. At the min-announced floor
// the same evidence is vetoed and the site absorbs.
func TestManagerStoppedServerWithdrawn(t *testing.T) {
	settle := func(t *testing.T, m *Manager) {
		t.Helper()
		if !tickUntil(t, m, 10, func() bool {
			for _, s := range m.Status().Sites {
				if s.State != "healthy" {
					return false
				}
			}
			return true
		}) {
			t.Fatalf("deployment never settled healthy: %+v", m.Status().Sites)
		}
	}

	t.Run("withdrawn", func(t *testing.T) {
		m, err := New(testManagerConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		settle(t, m)
		if err := m.sites[1].srv.Close(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < 4; i++ {
			if err := m.TickOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			got = append(got, siteState(m, 1))
		}
		want := []string{"stressed", "stressed", "draining", "withdrawn"}
		if !slices.Equal(got, want) {
			t.Fatalf("stopped site went %v, want %v", got, want)
		}
		st := m.Status()
		if st.Sites[1].Announced || st.Sites[1].Catchment != 0 || st.Announced != 2 {
			t.Fatalf("stopped site still in rotation: %+v", st.Sites)
		}
	})

	t.Run("floor_vetoes", func(t *testing.T) {
		cfg := testManagerConfig(t)
		cfg.Sites = []string{"AMS", "LHR"}
		cfg.MinAnnounced = 2
		cfg.JournalPath = filepath.Join(t.TempDir(), "journal.bin")
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		settle(t, m)
		if err := m.sites[1].srv.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := m.TickOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := ReadJournal(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		absorbs := 0
		for _, r := range recs {
			if r.Type == RecTransition && r.Action == "withdraw" {
				t.Fatalf("floor violated: %+v", r)
			}
			if r.Type == RecAbsorb && r.Site == 1 && strings.Contains(r.Reason, "server stopped reading") {
				absorbs++
			}
		}
		if absorbs == 0 {
			t.Fatalf("no absorb of the stopped site journaled: %+v", recs)
		}
		if st := m.Status(); st.Announced != 2 || st.Sites[1].State != "stressed" {
			t.Fatalf("at the floor the stopped site should absorb: %+v", st.Sites)
		}
	})
}

func TestManagerJournalResume(t *testing.T) {
	cfg := testManagerConfig(t)
	dir := t.TempDir()
	cfg.JournalPath = filepath.Join(dir, "journal.bin")
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := flood(t, m.SiteAddr(0))
	if !tickUntil(t, m, 60, func() bool { return siteState(m, 0) == "withdrawn" }) {
		stop()
		t.Fatalf("site never withdrawn: %+v", m.Status().Sites[0])
	}
	stop()
	penalty := m.Status().Sites[0].Penalty
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A new manager on the same journal resumes withdrawn-with-penalty,
	// not fresh: damping history survives the crash.
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st := m2.Status()
	if st.Sites[0].State != "withdrawn" || st.Sites[0].Announced {
		t.Fatalf("resume lost state: %+v", st.Sites[0])
	}
	if st.Sites[0].Penalty <= 0 || st.Sites[0].Penalty > penalty+1 {
		t.Fatalf("resume penalty %v, journaled %v", st.Sites[0].Penalty, penalty)
	}
	if st.Announced != 2 {
		t.Fatalf("resume announced = %d", st.Announced)
	}
	// With the flood gone, the resumed manager heals the site.
	if !tickUntil(t, m2, 120, func() bool { return m2.Status().Sites[0].Announced }) {
		t.Fatalf("resumed manager never re-announced: %+v", m2.Status().Sites[0])
	}
}

func TestManagerJournalMismatchRejected(t *testing.T) {
	cfg := testManagerConfig(t)
	dir := t.TempDir()
	cfg.JournalPath = filepath.Join(dir, "journal.bin")
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.TickOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99 // different deployment
	if _, err := New(cfg); err == nil {
		t.Fatal("mismatched journal accepted")
	}
}

func TestManagerStateFilePublished(t *testing.T) {
	cfg := testManagerConfig(t)
	dir := t.TempDir()
	cfg.StatePath = filepath.Join(dir, "state.json")
	cfg.SampleASNs = sampleASNs(5)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.TickOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	var st StateFile
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("state file not valid JSON: %v", err)
	}
	if st.Letter != "K" || st.Tick != 1 || len(st.Sites) != 3 || len(st.Samples) != 5 {
		t.Fatalf("state file: %+v", st)
	}
	for _, s := range st.Samples {
		if s.Site >= 0 && s.Addr == "" {
			t.Fatalf("sample with a site but no address: %+v", s)
		}
	}
}
