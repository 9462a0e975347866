package rrl

import (
	"sync"
	"testing"
)

// TestShardedVerdictEquivalence replays one deterministic traffic sequence
// through limiters with different shard counts and requires identical
// verdicts packet by packet: sharding relocates buckets, it must never
// change per-prefix decisions while the table is below capacity.
func TestShardedVerdictEquivalence(t *testing.T) {
	mk := func(shards int) *Limiter {
		return MustNew(Config{
			ResponsesPerSecond: 3, Burst: 5, SlipRatio: 2, PrefixBits: 24, Shards: shards,
		})
	}
	base := mk(1)
	for _, shards := range []int{2, 4, 7, 16} {
		l := mk(shards)
		for i, s := range mixedTraffic() {
			want := base.Check(s.src, s.nowMs)
			if got := l.Check(s.src, s.nowMs); got != want {
				t.Fatalf("step %d (src %08x): %d shards says %v, 1 shard says %v",
					i, s.src, shards, got, want)
			}
		}
		// Aggregate stats must match too.
		s1, d1, sl1 := base.Stats()
		s2, d2, sl2 := l.Stats()
		if s1 != s2 || d1 != d2 || sl1 != sl2 {
			t.Fatalf("%d shards stats %d/%d/%d, 1 shard %d/%d/%d", shards, s2, d2, sl2, s1, d1, sl1)
		}
		base = mk(1) // fresh baseline for the next shard count
	}
}

// mixedTraffic is 40 heavy prefixes plus a spread of one-shot sources, over
// an advancing clock — a miniature of the event mix.
func mixedTraffic() []step {
	steps := make([]step, 5000)
	for i := range steps {
		src := uint32(i%40)<<24 | uint32(i) // heavy hitters
		if i%3 == 0 {
			src = uint32(i) * 2654435761 // spoofed-unique
		}
		steps[i] = step{src, int64(i / 10)}
	}
	return steps
}

// TestShardStableMapping checks a prefix never migrates between shards.
func TestShardStableMapping(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 1, Shards: 8})
	for src := uint32(0); src < 4096; src += 7 {
		key := src & l.mask
		first, _ := l.shardFor(key)
		for i := 0; i < 3; i++ {
			if sh, _ := l.shardFor(key); sh != first {
				t.Fatalf("key %08x migrated shards", key)
			}
		}
	}
}

// TestShardSpread verifies the splitmix spread actually uses all shards for
// masked /24 keys (a plain modulo of the masked key would not).
func TestShardSpread(t *testing.T) {
	l := MustNew(Config{ResponsesPerSecond: 1, PrefixBits: 24, Shards: 8})
	hit := make(map[*shard]int)
	for i := uint32(0); i < 256; i++ {
		key := (i << 8) & l.mask // 256 distinct /24s
		sh, _ := l.shardFor(key)
		hit[sh]++
	}
	if len(hit) != 8 {
		t.Fatalf("256 prefixes landed on %d of 8 shards: %v", len(hit), hit)
	}
}

func TestShardsValidation(t *testing.T) {
	if _, err := New(Config{ResponsesPerSecond: 1, Shards: -1}); err == nil {
		t.Error("negative Shards should fail validation")
	}
	l, err := New(Config{ResponsesPerSecond: 1, Shards: 130, MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	// More shards than MaxEntries still leaves every shard one set.
	for i := range l.shards {
		if l.shards[i].maxSets < 1 {
			t.Fatal("per-shard cap fell below one set")
		}
	}
}

// TestShardedConcurrentAccess hammers a sharded limiter from many
// goroutines under -race and checks verdict conservation.
func TestShardedConcurrentAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 8
	l := MustNew(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Check(uint32(w)<<24|uint32(i%50), int64(i))
				if i%100 == 0 {
					l.Stats()
					l.Entries()
				}
			}
		}(w)
	}
	wg.Wait()
	sent, dropped, slipped := l.Stats()
	if sent+dropped+slipped != 16000 {
		t.Errorf("verdicts = %d, want 16000", sent+dropped+slipped)
	}
}

func BenchmarkCheckShardedParallel(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Shards = 8
	l := MustNew(cfg)
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i++
			l.Check(i*2654435761, int64(i/1000))
		}
	})
}
