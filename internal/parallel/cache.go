package parallel

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"cohort/internal/stats"
)

// Cache is a content-addressed memo cache for evaluation results: the key is
// everything that defines the computation — a digest of the profile,
// scenario and timer vector (see Key), or any comparable value that holds
// all of it — so identical requests are never recomputed.
// Correctness rests on jobs being pure: the cached value for a key must be
// byte-identical to recomputing it, which makes a cache hit observationally
// equivalent to a miss and keeps every output independent of cache state.
//
// The zero value is not usable; construct with NewCache. All methods are safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	m            map[K]V
	hits, misses int64
}

// NewCache returns an empty cache.
func NewCache[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]V)}
}

// Get returns the cached value for key and counts the probe as a hit or a
// miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores the value for key. Racing writers for the same key are harmless:
// purity guarantees they store identical values.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// GetOrCompute returns the cached value for key, computing and storing it
// on a miss. compute runs outside the cache lock, so concurrent callers may
// compute the same key redundantly; purity makes the race harmless — both
// store identical values (see Put). The probe is counted exactly once.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() V) V {
	if v, ok := c.Get(key); ok {
		return v
	}
	v := compute()
	c.Put(key, v)
	return v
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every entry and zeroes the counters. The serial-equivalence
// tests call this between the -j 1 and -j N runs so both compute from a cold
// cache.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[K]V)
	c.hits, c.misses = 0, 0
}

// Stats returns the probe counters.
func (c *Cache[K, V]) Stats() stats.EngineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stats.EngineStats{
		Jobs:        c.hits + c.misses,
		CacheHits:   c.hits,
		CacheMisses: c.misses,
	}
}

// Key accumulates the values that define a computation and digests them into
// a content-addressed cache key. Append values in a fixed order; variable-
// length fields are length-prefixed so no two distinct value sequences
// produce the same byte stream. The digest is SHA-256, so key collisions —
// which would silently alias two different computations — are not a practical
// concern.
type Key struct {
	buf []byte
}

// NewKey starts a key in the given domain; distinct domains (e.g. "opt" vs
// "sim") can never collide even over identical payloads.
func NewKey(domain string) *Key {
	k := &Key{}
	k.Str(domain)
	return k
}

// Uint64 appends a fixed-width integer.
func (k *Key) Uint64(v uint64) *Key {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, v)
	return k
}

// Int64 appends a signed integer.
func (k *Key) Int64(v int64) *Key { return k.Uint64(uint64(v)) }

// Int appends a platform int.
func (k *Key) Int(v int) *Key { return k.Int64(int64(v)) }

// Float64 appends a float by its IEEE-754 bit pattern.
func (k *Key) Float64(v float64) *Key { return k.Uint64(math.Float64bits(v)) }

// Bool appends a boolean.
func (k *Key) Bool(v bool) *Key {
	if v {
		return k.Uint64(1)
	}
	return k.Uint64(0)
}

// Bytes appends a length-prefixed byte slice.
func (k *Key) Bytes(b []byte) *Key {
	k.Uint64(uint64(len(b)))
	k.buf = append(k.buf, b...)
	return k
}

// Str appends a length-prefixed string.
func (k *Key) Str(s string) *Key {
	k.Uint64(uint64(len(s)))
	k.buf = append(k.buf, s...)
	return k
}

// Sum returns the content digest as a compact string key.
func (k *Key) Sum() string {
	h := sha256.Sum256(k.buf)
	return string(h[:])
}
