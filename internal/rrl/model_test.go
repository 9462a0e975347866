package rrl

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// model is the map-based limiter this package shipped before the
// set-associative table: one heap bucket per prefix in a map. It has no
// cap, so it is the reference only while the table has evicted nothing.
type model struct {
	cfg                    Config
	mask                   uint32
	buckets                map[uint32]*bucket
	sent, dropped, slipped uint64
}

func newModel(t testing.TB, cfg Config) *model {
	t.Helper()
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return &model{cfg: cfg, mask: ^uint32(0) << (32 - cfg.PrefixBits), buckets: make(map[uint32]*bucket)}
}

func (m *model) check(src uint32, nowMs int64) Action {
	key := src & m.mask
	b, ok := m.buckets[key]
	if !ok {
		b = &bucket{tokens: m.cfg.Burst, lastMs: nowMs}
		m.buckets[key] = b
	}
	if nowMs > b.lastMs {
		b.tokens += float64(nowMs-b.lastMs) / 1000 * m.cfg.ResponsesPerSecond
		if b.tokens > m.cfg.Burst {
			b.tokens = m.cfg.Burst
		}
		b.lastMs = nowMs
	}
	if b.tokens >= 1 {
		b.tokens--
		m.sent++
		return Send
	}
	b.suppressed++
	if m.cfg.SlipRatio > 0 && b.suppressed%m.cfg.SlipRatio == 0 {
		m.slipped++
		return Slip
	}
	m.dropped++
	return Drop
}

type step struct {
	src   uint32
	nowMs int64
}

// matchesModel replays steps through a new limiter and the model, failing
// on the first verdict that differs and on differing Stats at the end. It
// returns false, comparing no further, once the limiter has evicted.
func matchesModel(t testing.TB, cfg Config, steps []step) bool {
	t.Helper()
	l, m := MustNew(cfg), newModel(t, cfg)
	for i, s := range steps {
		want, got := m.check(s.src, s.nowMs), l.Check(s.src, s.nowMs)
		if l.Entries() < len(m.buckets) {
			return false
		}
		if got != want {
			t.Fatalf("step %d (src %08x at %d ms): limiter says %v, model says %v", i, s.src, s.nowMs, got, want)
		}
	}
	s, d, sl := l.Stats()
	if s != m.sent || d != m.dropped || sl != m.slipped || l.Entries() != len(m.buckets) {
		t.Fatalf("limiter stats %d/%d/%d with %d entries, model %d/%d/%d with %d",
			s, d, sl, l.Entries(), m.sent, m.dropped, m.slipped, len(m.buckets))
	}
	return true
}

// spoofedMix is a seeded miniature of the event's source structure: 68% of
// packets from 200 heavy /24s, the rest from random spoofed addresses.
func spoofedMix(seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]step, n)
	now := int64(0)
	for i := range steps {
		src := rng.Uint32()
		if rng.Intn(100) < 68 {
			src = 0x0A000000 | uint32(rng.Intn(200))<<8 | src&0xFF
		}
		now += int64(rng.Intn(4))
		steps[i] = step{src, now}
	}
	return steps
}

// TestLimiterMatchesModel holds the table to the map-based limiter packet by
// packet below capacity, for one shard and several.
func TestLimiterMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mixed := Config{ResponsesPerSecond: 3, Burst: 5, SlipRatio: 2, PrefixBits: 24, Shards: shards}
		if !matchesModel(t, mixed, mixedTraffic()) {
			t.Fatalf("%d shards: mixed traffic evicted below capacity", shards)
		}
		spoofed := DefaultConfig()
		spoofed.Shards = shards
		if !matchesModel(t, spoofed, spoofedMix(int64(shards), 20_000)) {
			t.Fatalf("%d shards: spoofed mix evicted below capacity", shards)
		}
	}
}

// FuzzLimiterModel compares the table with the model on arbitrary traffic:
// the first byte picks the config, then every 3 bytes are one check, up to
// 64: two bytes pick the /24, the third is both the host byte and the clock
// advance in ms.
func FuzzLimiterModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 200})
	f.Add([]byte{0x1f, 0xff, 0, 3, 0, 1, 1, 0, 1, 250, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+3*64 {
			return // minimizing costs about the cube of the input length
		}
		cfg := Config{
			ResponsesPerSecond: float64(1 + data[0]&3),
			Burst:              float64(1 + data[0]>>2&3),
			SlipRatio:          int(data[0] >> 4 & 3),
			PrefixBits:         []int{24, 32}[data[0]>>6&1],
			Shards:             1 + int(data[0]>>7)*3,
		}
		var steps []step
		now := int64(0)
		for p := data[1:]; len(p) >= 3; p = p[3:] {
			now += int64(p[2])
			steps = append(steps, step{uint32(binary.BigEndian.Uint16(p))<<8 | uint32(p[2]), now})
		}
		matchesModel(t, cfg, steps)
	})
}

// TestOverCapacityDeterministic replays one over-capacity sequence twice:
// with the table full, eviction picks its victim by a fixed rule, so two
// identical runs must agree on every verdict.
func TestOverCapacityDeterministic(t *testing.T) {
	run := func() []Action {
		l := MustNew(Config{ResponsesPerSecond: 5, SlipRatio: 2, MaxEntries: 256})
		rng := rand.New(rand.NewSource(7))
		out := make([]Action, 200_000)
		for i := range out {
			src := rng.Uint32() // spoofed
			if i%3 == 0 {
				src = 0x0A000000 | uint32(i/3%50)<<8 // 50 heavy /24s
			}
			out[i] = l.Check(src, int64(i/50))
		}
		return out
	}
	a, b := run(), run()
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Fatalf("%d of %d verdicts differ between identical runs", diff, len(a))
	}
}

// TestEvictsLeastRecentlyTouched fills a one-set table with prefixes 1 and 2
// touched last at 1 ms and the rest at 5 ms: a new prefix must evict
// prefix 1, the lower slot of the two oldest.
func TestEvictsLeastRecentlyTouched(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 1, Burst: 1, MaxEntries: ways})
	sh := &l.shards[0]
	for i := uint32(0); i < ways; i++ {
		now := int64(5)
		if i == 1 || i == 2 {
			now = 1
		}
		l.Check(i<<8, now)
	}
	l.Check(ways<<8, 10)
	if len(sh.sets) != 1 || sh.n != ways {
		t.Fatalf("table has %d sets and %d entries, want 1 and %d", len(sh.sets), sh.n, ways)
	}
	for i := uint32(0); i <= ways; i++ {
		_, h := l.shardFor(i << 8)
		if _, ok := sh.find(i<<8, h); ok == (i == 1) {
			t.Errorf("prefix %d present = %v", i, ok)
		}
	}
}
