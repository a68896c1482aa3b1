// Package cache implements the NVDIMM buffer cache with the LRFU
// replacement policy (Lee et al., 2001 — paper ref [8]) and an LRU policy
// for comparison. The migration experiments (Fig. 11, Fig. 15) depend on
// two behaviours modeled here: cache pollution by migrated-data reads, and
// the bypass path that avoids it.
package cache

import (
	"container/heap"
	"math"

	"repro/internal/telemetry"
)

// Victim describes an evicted block.
type Victim struct {
	Block int64
	Dirty bool
}

// Cache is the replacement-policy abstraction.
type Cache interface {
	// Lookup reports whether block is cached, updating recency state on a
	// hit and recording hit/miss statistics.
	Lookup(block int64) bool
	// Insert caches block, evicting as needed; evicted victims are
	// returned so the device can schedule write-backs for dirty ones.
	Insert(block int64, dirty bool) []Victim
	// MarkDirty marks a resident block dirty; it reports whether the
	// block was resident.
	MarkDirty(block int64) bool
	// Contains reports residency without touching recency or stats.
	Contains(block int64) bool
	// Invalidate empties the cache without write-backs — the power-loss
	// path (DRAM cache contents are volatile; dirty lines are covered by
	// flush-on-fail circuitry, so dropping them loses no data). Hit/miss
	// statistics survive.
	Invalidate()
	// Len returns the number of resident blocks.
	Len() int
	// Cap returns the capacity in blocks.
	Cap() int
	// Stats returns the hit/miss counters.
	Stats() *Stats
}

// Stats tracks cache effectiveness, both lifetime and over a rolling
// window (Fig. 15 plots hit ratio versus request count).
type Stats struct {
	Hits, Misses             uint64
	WindowHits, WindowMisses uint64
}

func (s *Stats) hit()  { s.Hits++; s.WindowHits++ }
func (s *Stats) miss() { s.Misses++; s.WindowMisses++ }

// HitRatio returns lifetime hits/(hits+misses), 0 when empty.
func (s *Stats) HitRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// WindowHitRatio returns the hit ratio since the last ResetWindow.
func (s *Stats) WindowHitRatio() float64 {
	t := s.WindowHits + s.WindowMisses
	if t == 0 {
		return 0
	}
	return float64(s.WindowHits) / float64(t)
}

// ResetWindow starts a new measurement window.
func (s *Stats) ResetWindow() { s.WindowHits, s.WindowMisses = 0, 0 }

// RegisterTelemetry exposes the counters under prefix (e.g.
// "node0.nvdimm.cache."): lifetime hits, misses, and hit ratio.
func (s *Stats) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"hits", func() float64 { return float64(s.Hits) })
	reg.Gauge(prefix+"misses", func() float64 { return float64(s.Misses) })
	reg.Gauge(prefix+"hit_ratio", s.HitRatio)
}

// ---------------------------------------------------------------------------
// LRFU

// lrfuEntry is one resident block in the LRFU heap. Keys are kept in log
// space: key = log2(crf) + λ·clock, which orders identically to CRF
// projected to a common reference time and never overflows.
type lrfuEntry struct {
	owner *LRFU
	block int64
	crf   float64
	last  uint64  // access-count clock at last touch
	k     float64 // key(), cached whenever crf or last changes
	dirty bool
	index int // heap index
}

type lrfuHeap []*lrfuEntry

func (h lrfuHeap) Len() int { return len(h) }
func (h lrfuHeap) Less(i, j int) bool {
	// Compare projected CRF at a common time; both decayed from their own
	// last-touch. log2(crf_i) + λ·last_i orders equivalently.
	return h[i].k < h[j].k
}
func (h lrfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *lrfuHeap) Push(x interface{}) {
	e := x.(*lrfuEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *lrfuHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (e *lrfuEntry) key() float64 {
	return math.Log2(e.crf) + e.owner.lambda*float64(e.last)
}

// LRFU is a Combined-Recency-and-Frequency cache. Lambda in (0,1]:
// λ → 0 behaves like LFU, λ = 1 like LRU. The clock is the access count.
type LRFU struct {
	capacity int
	lambda   float64
	clock    uint64
	entries  map[int64]*lrfuEntry
	heap     lrfuHeap
	stats    Stats
}

// DefaultLambda is the λ used by the paper-configuration NVDIMM cache.
const DefaultLambda = 0.001

// NewLRFU creates an LRFU cache holding capacity blocks. It panics on
// non-positive capacity or λ outside (0, 1].
func NewLRFU(capacity int, lambda float64) *LRFU {
	if capacity <= 0 {
		panic("cache: non-positive capacity")
	}
	if lambda <= 0 || lambda > 1 {
		panic("cache: lambda out of (0,1]")
	}
	return &LRFU{
		capacity: capacity,
		lambda:   lambda,
		entries:  make(map[int64]*lrfuEntry, capacity),
	}
}

// decayFactor returns 2^(-λ·dt).
func (c *LRFU) decayFactor(dt uint64) float64 {
	return math.Exp2(-c.lambda * float64(dt))
}

// Lookup implements Cache.
func (c *LRFU) Lookup(block int64) bool {
	c.clock++
	e, ok := c.entries[block]
	if !ok {
		c.stats.miss()
		return false
	}
	c.stats.hit()
	c.touch(e)
	return true
}

func (c *LRFU) touch(e *lrfuEntry) {
	e.crf = 1 + e.crf*c.decayFactor(c.clock-e.last)
	e.last = c.clock
	e.k = e.key()
	heap.Fix(&c.heap, e.index)
}

// Insert implements Cache.
func (c *LRFU) Insert(block int64, dirty bool) []Victim {
	c.clock++
	if e, ok := c.entries[block]; ok {
		if dirty {
			e.dirty = true
		}
		c.touch(e)
		return nil
	}
	var victims []Victim
	for len(c.entries) >= c.capacity {
		v := heap.Pop(&c.heap).(*lrfuEntry)
		delete(c.entries, v.block)
		victims = append(victims, Victim{Block: v.block, Dirty: v.dirty})
	}
	e := &lrfuEntry{owner: c, block: block, crf: 1, last: c.clock, dirty: dirty}
	e.k = e.key()
	c.entries[block] = e
	heap.Push(&c.heap, e)
	return victims
}

// MarkDirty implements Cache.
func (c *LRFU) MarkDirty(block int64) bool {
	e, ok := c.entries[block]
	if ok {
		e.dirty = true
	}
	return ok
}

// Contains implements Cache.
func (c *LRFU) Contains(block int64) bool {
	_, ok := c.entries[block]
	return ok
}

// Invalidate implements Cache.
func (c *LRFU) Invalidate() {
	c.entries = make(map[int64]*lrfuEntry, c.capacity)
	c.heap = nil
}

// Len implements Cache.
func (c *LRFU) Len() int { return len(c.entries) }

// Cap implements Cache.
func (c *LRFU) Cap() int { return c.capacity }

// Stats implements Cache.
func (c *LRFU) Stats() *Stats { return &c.stats }

// ---------------------------------------------------------------------------
// LRU

// lruNode is a doubly-linked list node.
type lruNode struct {
	block      int64
	dirty      bool
	prev, next *lruNode
}

// LRU is a classic least-recently-used cache for baseline comparisons.
type LRU struct {
	capacity   int
	entries    map[int64]*lruNode
	head, tail *lruNode // head = most recent
	stats      Stats
}

// NewLRU creates an LRU cache holding capacity blocks.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("cache: non-positive capacity")
	}
	return &LRU{capacity: capacity, entries: make(map[int64]*lruNode, capacity)}
}

func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// Lookup implements Cache.
func (c *LRU) Lookup(block int64) bool {
	n, ok := c.entries[block]
	if !ok {
		c.stats.miss()
		return false
	}
	c.stats.hit()
	c.unlink(n)
	c.pushFront(n)
	return true
}

// Insert implements Cache.
func (c *LRU) Insert(block int64, dirty bool) []Victim {
	if n, ok := c.entries[block]; ok {
		if dirty {
			n.dirty = true
		}
		c.unlink(n)
		c.pushFront(n)
		return nil
	}
	var victims []Victim
	for len(c.entries) >= c.capacity {
		v := c.tail
		c.unlink(v)
		delete(c.entries, v.block)
		victims = append(victims, Victim{Block: v.block, Dirty: v.dirty})
	}
	n := &lruNode{block: block, dirty: dirty}
	c.entries[block] = n
	c.pushFront(n)
	return victims
}

// MarkDirty implements Cache.
func (c *LRU) MarkDirty(block int64) bool {
	n, ok := c.entries[block]
	if ok {
		n.dirty = true
	}
	return ok
}

// Contains implements Cache.
func (c *LRU) Contains(block int64) bool {
	_, ok := c.entries[block]
	return ok
}

// Invalidate implements Cache.
func (c *LRU) Invalidate() {
	c.entries = make(map[int64]*lruNode, c.capacity)
	c.head, c.tail = nil, nil
}

// Len implements Cache.
func (c *LRU) Len() int { return len(c.entries) }

// Cap implements Cache.
func (c *LRU) Cap() int { return c.capacity }

// Stats implements Cache.
func (c *LRU) Stats() *Stats { return &c.stats }

var (
	_ Cache = (*LRFU)(nil)
	_ Cache = (*LRU)(nil)
)
