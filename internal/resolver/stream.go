package resolver

import (
	"math/rand"
	"sync"
)

// Bounds of the per-seed stream cache.
const (
	// streamPrefixLen is how many raw values of a seed's stream the cache
	// keeps: more than a grid cell's resolver draws.
	streamPrefixLen = 512
	// streamCacheCap bounds the seeds cached (4 KiB each); at the cap the
	// cache is cleared all at once.
	streamCacheCap = 256
)

// streamPrefixes caches the first streamPrefixLen raw values of
// rand.NewSource(seed) per seed. A population seeds its resolvers with
// seed+i, and a campaign worker seeds the same population in every cell
// it runs, so after the first cell no resolver pays rand.NewSource's
// seeding. The arrays are never written once stored, so any number of
// streams may read one.
var streamPrefixes struct {
	mu sync.Mutex
	m  map[int64]*[streamPrefixLen]uint64
}

// streamPrefix returns the cached prefix of seed's stream. On a miss it
// builds the prefix and also returns the source it built it from, now
// past the prefix, for the caller to continue from.
func streamPrefix(seed int64) (*[streamPrefixLen]uint64, rand.Source64) {
	streamPrefixes.mu.Lock()
	pre := streamPrefixes.m[seed]
	streamPrefixes.mu.Unlock()
	if pre != nil {
		return pre, nil
	}
	pre = new([streamPrefixLen]uint64)
	src := rand.NewSource(seed).(rand.Source64)
	for i := range pre {
		pre[i] = src.Uint64()
	}
	streamPrefixes.mu.Lock()
	defer streamPrefixes.mu.Unlock()
	if streamPrefixes.m == nil || len(streamPrefixes.m) >= streamCacheCap {
		streamPrefixes.m = make(map[int64]*[streamPrefixLen]uint64, streamCacheCap)
	}
	streamPrefixes.m[seed] = pre
	return pre, src
}

// streamSource is a rand.Source64 whose output is exactly
// rand.NewSource(seed)'s: it reads the cached prefix of the seed's stream,
// then continues from a private rand.NewSource(seed) advanced past it.
type streamSource struct {
	seed int64
	pre  *[streamPrefixLen]uint64
	next int // values read so far
	// rest continues the stream past the prefix: the source that built the
	// prefix, or one seeded and advanced on the first read past it.
	rest rand.Source64
}

// newStreamSource returns the source rand.NewSource(seed) would be.
func newStreamSource(seed int64) *streamSource {
	pre, rest := streamPrefix(seed)
	return &streamSource{seed: seed, pre: pre, rest: rest}
}

// Uint64 returns the stream's next raw value.
func (s *streamSource) Uint64() uint64 {
	if s.next < streamPrefixLen {
		v := s.pre[s.next]
		s.next++
		return v
	}
	if s.rest == nil {
		s.rest = rand.NewSource(s.seed).(rand.Source64)
		for range streamPrefixLen {
			s.rest.Uint64()
		}
	}
	return s.rest.Uint64()
}

// Int63 returns the next raw value masked to 63 bits, as rand's own
// source does.
func (s *streamSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed restarts the source as seed's stream.
func (s *streamSource) Seed(seed int64) { *s = *newStreamSource(seed) }
