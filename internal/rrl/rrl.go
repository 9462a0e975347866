// Package rrl implements DNS Response Rate Limiting in the style deployed
// on authoritative servers (Vixie's DNS RRL).
//
// RRL limits identical responses to the same client network, defeating both
// reflection-amplification and — as during the Nov 2015 events — repeated
// fixed-name floods: Verisign reported RRL identified duplicate queries and
// dropped about 60% of responses at A- and J-Root (§2.3). Sources are
// aggregated by prefix, each prefix holds a token bucket, and a configurable
// fraction of suppressed answers "slip" through as truncated replies so
// that legitimate clients behind an abused prefix can retry over TCP.
//
// The limiter is deterministic: callers supply the clock, and a full table
// evicts by a fixed rule, so one sequence of checks always gets the same
// verdicts, and simulation and live servers share the same code path.
package rrl

import (
	"errors"
	"sync"
)

// Action is the limiter's verdict for one response.
type Action uint8

// Verdicts.
const (
	// Send means the response goes out normally.
	Send Action = iota
	// Drop means the response is suppressed entirely.
	Drop
	// Slip means a minimal truncated (TC=1) response is sent so genuine
	// clients can fail over to TCP.
	Slip
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Send:
		return "send"
	case Drop:
		return "drop"
	case Slip:
		return "slip"
	default:
		return "unknown"
	}
}

// Config controls the limiter.
type Config struct {
	// ResponsesPerSecond is the sustained per-prefix response budget.
	ResponsesPerSecond float64
	// Burst is the bucket depth in responses; defaults to 4x the
	// per-second rate when zero.
	Burst float64
	// SlipRatio sends every Nth suppressed response as truncated. 0
	// disables slip; 2 matches common operator practice.
	SlipRatio int
	// PrefixBits aggregates IPv4 sources by this prefix length
	// (default 24, the RRL convention).
	PrefixBits int
	// MaxEntries caps the bucket table (default 65536). Each shard's share
	// is rounded down to a power-of-two number of 8-bucket sets, at least
	// one. The table grows to that cap as prefixes arrive; at the cap a new
	// prefix whose set is full evicts the set's least recently touched
	// bucket, the lowest slot breaking ties. An idle bucket refills toward
	// Burst, where a new one starts, so evicting the idlest costs least.
	MaxEntries int
	// Shards splits the bucket table into independently locked shards so
	// concurrent packet workers do not serialize on one mutex. A prefix
	// always maps to the same shard. Below capacity (no eviction yet),
	// per-prefix verdicts are identical for any shard count. At capacity
	// eviction is per shard, so verdicts are identical run to run for one
	// shard count and one check sequence, but differ across shard counts.
	// Defaults to 1: the single-lock behavior of earlier revisions.
	Shards int
}

// DefaultConfig matches common authoritative-server settings.
func DefaultConfig() Config {
	return Config{ResponsesPerSecond: 5, SlipRatio: 2, PrefixBits: 24}
}

func (c *Config) fillDefaults() error {
	if c.ResponsesPerSecond <= 0 {
		return errors.New("rrl: ResponsesPerSecond must be positive")
	}
	if c.Burst == 0 {
		c.Burst = 4 * c.ResponsesPerSecond
	}
	if c.Burst <= 0 {
		return errors.New("rrl: Burst must be positive")
	}
	if c.PrefixBits == 0 {
		c.PrefixBits = 24
	}
	if c.PrefixBits < 1 || c.PrefixBits > 32 {
		return errors.New("rrl: PrefixBits must be in [1,32]")
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 65536
	}
	if c.MaxEntries < 1 {
		return errors.New("rrl: MaxEntries must be positive")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return errors.New("rrl: Shards must be positive")
	}
	return nil
}

// ways is the bucket table's associativity: a prefix lives in one of the
// ways slots of the set its hash selects.
const ways = 8

type bucket struct {
	key        uint32
	used       bool
	tokens     float64
	lastMs     int64
	suppressed int // counts suppressed responses for slip accounting
}

// shard is one independently locked slice of the bucket table. Within a
// set the used slots come first: a slot is only ever filled or replaced,
// and a rehash packs each set from slot 0.
type shard struct {
	mu      sync.Mutex
	sets    [][ways]bucket // a power-of-two count, 1<<(32-shift)
	shift   uint8
	maxSets int
	n       int // used slots

	// Stats, guarded by mu.
	sent, dropped, slipped uint64
}

// Limiter rate-limits responses per source prefix. It is safe for
// concurrent use; with Config.Shards > 1 concurrent callers touching
// different prefixes rarely share a lock.
type Limiter struct {
	cfg    Config
	mask   uint32
	shards []shard
}

// New creates a limiter. The zero Config is invalid; start from
// DefaultConfig.
func New(cfg Config) (*Limiter, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	l := &Limiter{
		cfg:    cfg,
		mask:   ^uint32(0) << (32 - cfg.PrefixBits),
		shards: make([]shard, cfg.Shards),
	}
	maxSets := 1
	for maxSets*2*ways*cfg.Shards <= cfg.MaxEntries {
		maxSets *= 2
	}
	for i := range l.shards {
		l.shards[i].sets = make([][ways]bucket, 1)
		l.shards[i].shift = 32
		l.shards[i].maxSets = maxSets
	}
	return l, nil
}

// spread is a splitmix-style multiply of a masked key. The prefix mask
// zeroes the low bits, so a modulo of the raw key would land everything in
// a handful of shards or sets; the multiply spreads the surviving high
// bits first. Shards take the whole result modulo their count, sets take
// its top bits: for a /24 key the low bits of both halves coincide, so a
// set index masked from them would repeat the shard choice and leave most
// sets of a shard empty. It depends only on the key, never on concurrency,
// so verdict sequences per prefix are shard-count-independent.
func spread(key uint32) uint64 {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// shardFor picks the shard holding key's bucket and returns the hash bits
// that choose its set.
func (l *Limiter) shardFor(key uint32) (*shard, uint32) {
	h := spread(key)
	if len(l.shards) == 1 {
		return &l.shards[0], uint32(h >> 32)
	}
	return &l.shards[h%uint64(len(l.shards))], uint32(h >> 32)
}

// MustNew is New for known-good, compile-time-constant configs (tests and
// defaults). Configs from external input must go through New.
func MustNew(cfg Config) *Limiter {
	l, err := New(cfg)
	if err != nil {
		//repolint:allow panic -- Must* contract: config is a compile-time constant
		panic(err)
	}
	return l
}

// Check decides the fate of one response to src at the given time.
//
//repolint:hot
func (l *Limiter) Check(src uint32, nowMs int64) Action {
	key := src & l.mask
	sh, h := l.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	b, ok := sh.find(key, h)
	if !ok {
		if b == nil {
			b = sh.makeRoom(key, h)
		}
		if !b.used {
			sh.n++
		}
		*b = bucket{key: key, used: true, tokens: l.cfg.Burst, lastMs: nowMs}
	}
	// Refill.
	if nowMs > b.lastMs {
		b.tokens += float64(nowMs-b.lastMs) / 1000 * l.cfg.ResponsesPerSecond
		if b.tokens > l.cfg.Burst {
			b.tokens = l.cfg.Burst
		}
		b.lastMs = nowMs
	}
	if b.tokens >= 1 {
		b.tokens--
		sh.sent++
		return Send
	}
	b.suppressed++
	if l.cfg.SlipRatio > 0 && b.suppressed%l.cfg.SlipRatio == 0 {
		sh.slipped++
		return Slip
	}
	sh.dropped++
	return Drop
}

// find returns key's bucket in set h and true; on a miss it returns the
// set's first free slot, or nil when the set is full.
func (sh *shard) find(key, h uint32) (*bucket, bool) {
	set := &sh.sets[h>>sh.shift]
	for i := range set {
		b := &set[i]
		if !b.used {
			return b, false
		}
		if b.key == key {
			return b, true
		}
	}
	return nil, false
}

// makeRoom returns a slot for key, whose set h is full. Below the cap it
// doubles the table until the set has a free slot; at the cap it returns
// the set's least recently touched bucket, the lowest slot breaking ties.
func (sh *shard) makeRoom(key, h uint32) *bucket {
	for len(sh.sets) < sh.maxSets {
		sh.grow()
		if b, _ := sh.find(key, h); b != nil {
			return b
		}
	}
	set := &sh.sets[h>>sh.shift]
	victim := &set[0]
	for i := 1; i < ways; i++ {
		if set[i].lastMs < victim.lastMs {
			victim = &set[i]
		}
	}
	return victim
}

// grow doubles the shard's set count and rehashes every bucket. Set i
// splits into sets 2i and 2i+1, so no set can overflow.
func (sh *shard) grow() {
	old := sh.sets
	sh.sets = make([][ways]bucket, 2*len(old))
	sh.shift--
	for i := range old {
		for _, b := range old[i] {
			if !b.used {
				break
			}
			slot, _ := sh.find(b.key, uint32(spread(b.key)>>32))
			*slot = b
		}
	}
}

// Stats reports cumulative verdict counts, summed over shards.
func (l *Limiter) Stats() (sent, dropped, slipped uint64) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sent += sh.sent
		dropped += sh.dropped
		slipped += sh.slipped
		sh.mu.Unlock()
	}
	return sent, dropped, slipped
}

// Entries returns the current number of tracked prefixes.
func (l *Limiter) Entries() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// SuppressionModel provides the statistical counterpart used by the
// full-scale event simulation, where individual packets are not generated.
// Given the fraction of traffic that is a fixed-name flood from repeated
// sources, it returns the fraction of *responses* suppressed, calibrated to
// the ~60% suppression Verisign reported.
func SuppressionModel(floodFraction float64) float64 {
	if floodFraction <= 0 {
		return 0
	}
	if floodFraction > 1 {
		floodFraction = 1
	}
	// Heavy repeated sources are almost fully suppressed once buckets
	// drain; random-spoofed sources mostly evade RRL (each prefix sends
	// only a handful of queries). With the event's 0.68 heavy-source
	// share, a fully flooded letter suppresses ~60% of responses.
	const heavyShare = 0.68
	const heavySuppression = 0.88
	return floodFraction * heavyShare * heavySuppression
}
