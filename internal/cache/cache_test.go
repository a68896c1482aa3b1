package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func caches(capacity int) map[string]Cache {
	return map[string]Cache{
		"lrfu": NewLRFU(capacity, DefaultLambda),
		"lru":  NewLRU(capacity),
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLRFU(0, 0.5) },
		func() { NewLRFU(10, 0) },
		func() { NewLRFU(10, 1.5) },
		func() { NewLRU(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBasicHitMiss(t *testing.T) {
	for name, c := range caches(4) {
		if c.Lookup(1) {
			t.Fatalf("%s: hit on empty cache", name)
		}
		c.Insert(1, false)
		if !c.Lookup(1) {
			t.Fatalf("%s: miss after insert", name)
		}
		st := c.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats = %+v", name, st)
		}
		if st.HitRatio() != 0.5 {
			t.Fatalf("%s: hit ratio = %v", name, st.HitRatio())
		}
	}
}

func TestCapacityEnforced(t *testing.T) {
	for name, c := range caches(3) {
		for i := int64(0); i < 10; i++ {
			c.Insert(i, false)
		}
		if c.Len() != 3 {
			t.Fatalf("%s: len = %d, want 3", name, c.Len())
		}
		if c.Cap() != 3 {
			t.Fatalf("%s: cap = %d", name, c.Cap())
		}
	}
}

func TestEvictionReturnsVictims(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1, true)
		c.Insert(2, false)
		victims := c.Insert(3, false)
		if len(victims) != 1 {
			t.Fatalf("%s: %d victims, want 1", name, len(victims))
		}
		if victims[0].Block != 1 && victims[0].Block != 2 {
			t.Fatalf("%s: unexpected victim %d", name, victims[0].Block)
		}
	}
}

func TestDirtyVictimFlag(t *testing.T) {
	for name, c := range caches(1) {
		c.Insert(1, true)
		v := c.Insert(2, false)
		if len(v) != 1 || !v[0].Dirty {
			t.Fatalf("%s: dirty flag lost on eviction: %+v", name, v)
		}
		v = c.Insert(3, false)
		if len(v) != 1 || v[0].Dirty {
			t.Fatalf("%s: clean block evicted dirty: %+v", name, v)
		}
	}
}

func TestMarkDirty(t *testing.T) {
	for name, c := range caches(1) {
		c.Insert(5, false)
		if !c.MarkDirty(5) {
			t.Fatalf("%s: MarkDirty on resident failed", name)
		}
		if c.MarkDirty(99) {
			t.Fatalf("%s: MarkDirty on absent succeeded", name)
		}
		v := c.Insert(6, false)
		if len(v) != 1 || !v[0].Dirty {
			t.Fatalf("%s: marked-dirty block evicted clean", name)
		}
	}
}

func TestContainsNoStatsEffect(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1, false)
		before := *c.Stats()
		if !c.Contains(1) || c.Contains(2) {
			t.Fatalf("%s: Contains wrong", name)
		}
		if *c.Stats() != before {
			t.Fatalf("%s: Contains mutated stats", name)
		}
	}
}

func TestReinsertUpdatesDirty(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1, false)
		c.Insert(1, true) // same block, now dirty
		if c.Len() != 1 {
			t.Fatalf("%s: duplicate insert grew cache", name)
		}
		v := c.Insert(2, false)
		if len(v) != 0 {
			t.Fatalf("%s: eviction with free space", name)
		}
		v = c.Insert(3, false)
		foundDirty := false
		for _, x := range v {
			if x.Block == 1 && x.Dirty {
				foundDirty = true
			}
		}
		// Block 1 may or may not be the victim depending on policy, but if
		// it is, it must be dirty.
		for _, x := range v {
			if x.Block == 1 && !x.Dirty {
				t.Fatalf("%s: re-insert lost dirty bit", name)
			}
		}
		_ = foundDirty
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Lookup(1) // 1 becomes most recent
	v := c.Insert(3, false)
	if len(v) != 1 || v[0].Block != 2 {
		t.Fatalf("LRU evicted %+v, want block 2", v)
	}
}

func TestLRFUFrequencyProtects(t *testing.T) {
	// A frequently-accessed block should survive a scan that would evict
	// it under LRU.
	c := NewLRFU(3, 0.01)
	c.Insert(1, false)
	for i := 0; i < 20; i++ {
		c.Lookup(1)
	}
	c.Insert(2, false)
	c.Insert(3, false)
	// Scan of new blocks: 4, 5, 6...
	for b := int64(4); b < 10; b++ {
		c.Insert(b, false)
	}
	if !c.Contains(1) {
		t.Fatal("LRFU evicted the hot block during a scan")
	}
}

func TestLRFUHighLambdaActsLikeLRU(t *testing.T) {
	// λ = 1: pure recency. Oldest block goes first.
	c := NewLRFU(2, 1)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Lookup(1)
	v := c.Insert(3, false)
	if len(v) != 1 || v[0].Block != 2 {
		t.Fatalf("λ=1 LRFU evicted %+v, want block 2", v)
	}
}

func TestWindowStats(t *testing.T) {
	c := NewLRU(2)
	c.Insert(1, false)
	c.Lookup(1)
	c.Lookup(2)
	st := c.Stats()
	if st.WindowHitRatio() != 0.5 {
		t.Fatalf("window hit ratio = %v", st.WindowHitRatio())
	}
	st.ResetWindow()
	if st.WindowHitRatio() != 0 {
		t.Fatal("window not reset")
	}
	if st.HitRatio() == 0 {
		t.Fatal("lifetime stats should survive window reset")
	}
	c.Lookup(1)
	if st.WindowHitRatio() != 1 {
		t.Fatalf("post-reset window ratio = %v", st.WindowHitRatio())
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.WindowHitRatio() != 0 {
		t.Fatal("empty stats non-zero")
	}
}

// Property: Len never exceeds Cap and every reported victim is no longer
// resident, for arbitrary operation sequences on both policies.
func TestCacheInvariantsProperty(t *testing.T) {
	run := func(mk func() Cache) func(ops []uint8, blocks []int16) bool {
		return func(ops []uint8, blocks []int16) bool {
			c := mk()
			n := len(ops)
			if len(blocks) < n {
				n = len(blocks)
			}
			for i := 0; i < n; i++ {
				b := int64(blocks[i])
				switch ops[i] % 3 {
				case 0:
					c.Lookup(b)
				case 1:
					for _, v := range c.Insert(b, ops[i]%2 == 0) {
						if c.Contains(v.Block) {
							return false
						}
					}
				case 2:
					c.MarkDirty(b)
				}
				if c.Len() > c.Cap() {
					return false
				}
			}
			return true
		}
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(run(func() Cache { return NewLRFU(8, DefaultLambda) }), cfg); err != nil {
		t.Fatalf("LRFU: %v", err)
	}
	if err := quick.Check(run(func() Cache { return NewLRU(8) }), cfg); err != nil {
		t.Fatalf("LRU: %v", err)
	}
}

func TestMigrationScanPollutesLRU(t *testing.T) {
	// The Fig. 11/15 phenomenon in miniature: a working set that fits in
	// cache gets evicted by a one-pass migration scan, cratering the hit
	// ratio; skipping insertion (bypass) preserves it.
	workingSet := func(c Cache) {
		for round := 0; round < 5; round++ {
			for b := int64(0); b < 50; b++ {
				if !c.Lookup(b) {
					c.Insert(b, false)
				}
			}
		}
	}
	polluted := NewLRU(100)
	workingSet(polluted)
	// Migration scan inserts 1000 one-shot blocks.
	for b := int64(1000); b < 2000; b++ {
		polluted.Insert(b, false)
	}
	polluted.Stats().ResetWindow()
	workingSet(polluted)
	pollutedRatio := polluted.Stats().WindowHitRatio()

	bypassed := NewLRU(100)
	workingSet(bypassed)
	// Migration scan bypasses: no insertions at all.
	bypassed.Stats().ResetWindow()
	workingSet(bypassed)
	bypassedRatio := bypassed.Stats().WindowHitRatio()

	if pollutedRatio >= bypassedRatio {
		t.Fatalf("pollution (%v) should lower hit ratio vs bypass (%v)",
			pollutedRatio, bypassedRatio)
	}
}

// checkLRFUHeap fails the test unless every entry's cached key equals
// key(), every index matches its slot, and the heap order holds.
func checkLRFUHeap(t *testing.T, c *LRFU, step int) {
	t.Helper()
	if len(c.heap) != len(c.entries) {
		t.Fatalf("step %d: heap has %d entries, map %d", step, len(c.heap), len(c.entries))
	}
	for i, e := range c.heap {
		if e.k != e.key() {
			t.Fatalf("step %d: block %d cached key %v != key() %v", step, e.block, e.k, e.key())
		}
		if e.index != i {
			t.Fatalf("step %d: block %d at slot %d has index %d", step, e.block, i, e.index)
		}
		if c.entries[e.block] != e {
			t.Fatalf("step %d: heap entry for block %d is not the mapped one", step, e.block)
		}
		if p := (i - 1) / 2; i > 0 && c.heap.Less(i, p) {
			t.Fatalf("step %d: heap order broken at slot %d (parent %d)", step, i, p)
		}
	}
}

// TestLRFUCachedKeyConsistent drives a long random Lookup/Insert/MarkDirty
// sequence and checks that the key cached in each entry always equals the
// one key() computes and that the heap stays ordered by it.
func TestLRFUCachedKeyConsistent(t *testing.T) {
	for _, lambda := range []float64{DefaultLambda, 0.1, 1} {
		c := NewLRFU(64, lambda)
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 50000; step++ {
			block := int64(rng.Intn(256))
			switch r := rng.Intn(10); {
			case r < 5:
				c.Lookup(block)
			case r < 9:
				c.Insert(block, rng.Intn(4) == 0)
			default:
				c.MarkDirty(block)
			}
			if step%997 == 0 {
				checkLRFUHeap(t, c, step)
			}
		}
		checkLRFUHeap(t, c, -1)
	}
}
