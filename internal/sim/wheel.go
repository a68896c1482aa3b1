package sim

import (
	"math"
	"math/bits"
	"slices"
)

// The event queue is a hierarchical timer wheel: wheelLevels levels of
// wheelSlots slots each, with a 2^tickBits-ns tick at level 0. Level L
// buckets spans of 64^L ticks, so the wheel as a whole covers
// 64^wheelLevels ticks (~13 simulated days) ahead of the dispatch cursor.
// Events beyond the horizon wait in a small overflow min-heap and are
// promoted into the wheel as the cursor approaches them. Insert and
// cancel are O(1); dispatch pays an occasional bitmap scan plus amortized
// cascading, instead of the O(log n) pointer-chasing comparisons of the
// old global container/heap.
//
// Determinism (DESIGN.md §9, §15): dispatch order is exactly (time,
// insertion seq). All pending entries for one level-0 tick live in one
// slot by the time that tick is next to run (anything earlier has been
// cascaded down), and extraction sorts them by (at, seq), so same-time
// ties fire in scheduling order no matter how they arrived — direct
// insert, cascade, or overflow promotion. An insert landing inside the
// tick currently being dispatched goes into the live dispatch buffer at
// its sorted position; its fresh sequence number puts it after every
// same-time entry already there.
const (
	tickBits    = 8 // 256 ns per level-0 tick
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	slotMask    = wheelSlots - 1
	wheelLevels = 7
)

// timer states. A cancelled (tmDead) entry stays linked wherever it is and
// is reclaimed lazily when its slot is next touched, which keeps Stop O(1).
const (
	tmFree     uint8 = iota // in the pool
	tmWheel                 // linked in a wheel slot
	tmOverflow              // in the overflow heap
	tmBuffered              // extracted into the dispatch buffer
	tmRunning               // its callback is executing
	tmDead                  // cancelled; awaiting lazy reclamation
)

// timer is one scheduled callback. Timers are pooled: after dispatch or
// cancellation they return to a free list, so the steady-state hot path
// allocates nothing. gen is bumped on every recycle so stale Timer handles
// can never touch a reused entry.
type timer struct {
	at     Time
	seq    uint64
	fn     func()
	period Time // >0: periodic; re-armed after each dispatch
	gen    uint32
	state  uint8
	next   *timer // slot chain / free list link
}

// before reports whether a orders before b in dispatch order.
func (a *timer) before(b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheel is the engine's event queue. The zero value is ready to use.
type wheel struct {
	cur     Time                // dispatch cursor; advances only while dispatching
	occ     [wheelLevels]uint64 // per-level slot occupancy bitmaps
	levels  uint8               // bitmask of levels with any occupied slot
	slots   [wheelLevels][wheelSlots]*timer
	over    []*timer // overflow min-heap by (at, seq)
	buf     []*timer // dispatch buffer for bufTick, (at, seq)-sorted
	bufi    int      // next index into buf
	bufTick int64    // tick the buffer was extracted for
	free    *timer   // pool free list
	pending int      // live entries not yet dispatched

	// wheel-level cost counters, mirrored into EngineProfile when
	// profiling is armed (they are cheap enough to count unconditionally).
	cascades   uint64 // live entries moved to a lower level
	promotions uint64 // overflow entries promoted into the wheel
}

// get returns a pooled timer (allocating only when the pool is empty).
func (w *wheel) get() *timer {
	tm := w.free
	if tm == nil {
		return &timer{}
	}
	w.free = tm.next
	tm.next = nil
	return tm
}

// recycle returns an unlinked entry to the pool, invalidating handles.
func (w *wheel) recycle(tm *timer) {
	tm.gen++
	tm.fn = nil
	tm.period = 0
	tm.state = tmFree
	tm.next = w.free
	w.free = tm
}

// tickOf converts a timestamp to its level-0 tick number.
func tickOf(t Time) int64 { return int64(t) >> tickBits }

// levelOf returns the wheel level for an event delta ticks ahead of the
// cursor, or wheelLevels when it lies beyond the horizon.
func levelOf(delta int64) int {
	if delta < wheelSlots {
		return 0
	}
	return (bits.Len64(uint64(delta)) - 1) / levelBits
}

// insert links a live entry into the wheel, the overflow tier, or — when
// its tick is the one currently being dispatched — the live buffer.
// tm.at must be >= the engine clock (which is >= w.cur).
func (w *wheel) insert(tm *timer) {
	w.pending++
	if w.bufi < len(w.buf) && tickOf(tm.at) == w.bufTick {
		w.bufInsert(tm)
		return
	}
	w.place(tm)
}

// bufInsert splices a same-tick entry into the pending part of the
// dispatch buffer at its (at, seq) position. Its seq is the largest
// assigned so far, so it only has to move past later-timestamp entries.
func (w *wheel) bufInsert(tm *timer) {
	tm.state = tmBuffered
	w.buf = append(w.buf, tm)
	i := len(w.buf) - 1
	for i > w.bufi && tm.before(w.buf[i-1]) {
		w.buf[i] = w.buf[i-1]
		i--
	}
	w.buf[i] = tm
}

// place links tm by its tick delta from the cursor without touching the
// live count (shared by insert, cascading, and overflow promotion).
func (w *wheel) place(tm *timer) {
	lvl := levelOf(tickOf(tm.at) - tickOf(w.cur))
	if lvl >= wheelLevels {
		tm.state = tmOverflow
		w.overPush(tm)
		return
	}
	idx := int(tm.at>>(tickBits+levelBits*lvl)) & slotMask
	tm.state = tmWheel
	tm.next = w.slots[lvl][idx]
	w.slots[lvl][idx] = tm
	w.occ[lvl] |= 1 << idx
	w.levels |= 1 << lvl
}

// nextLevel0 returns the tick distance (0..63) of the first occupied
// level-0 slot at or after the cursor. Call only when occ[0] != 0.
func (w *wheel) nextLevel0() int {
	idx := int(tickOf(w.cur)) & slotMask
	return bits.TrailingZeros64(bits.RotateLeft64(w.occ[0], -idx))
}

// nextBase returns the start time of the first occupied slot strictly
// after the cursor's slot at level lvl (>= 1). A set bit on the cursor's
// own slot means the next rotation: fillBuf's grouped cascade guarantees
// live entries never linger in the current higher-level slot. Call only
// when occ[lvl] != 0.
func (w *wheel) nextBase(lvl int) Time {
	shift := uint(tickBits + levelBits*lvl)
	curAbs := uint64(w.cur) >> shift
	idx := int(curAbs) & slotMask
	rot := bits.RotateLeft64(w.occ[lvl], -idx)
	d := bits.TrailingZeros64(rot &^ 1)
	if d == 64 {
		d = wheelSlots // only the cursor slot is set: one full rotation away
	}
	return Time((curAbs + uint64(d)) << shift)
}

// unlink detaches and returns the chain of the given slot.
func (w *wheel) unlink(lvl, idx int) *timer {
	head := w.slots[lvl][idx]
	w.slots[lvl][idx] = nil
	w.occ[lvl] &^= 1 << idx
	if w.occ[lvl] == 0 {
		w.levels &^= 1 << lvl
	}
	return head
}

// cascade redistributes one higher-level slot: the cursor advances to the
// slot's base time (never backwards) and every live entry re-buckets at a
// strictly lower level (its remaining delta is less than one slot span).
// Dead entries are reclaimed here — cancellation's deferred cost.
func (w *wheel) cascade(lvl int, base Time) {
	if base > w.cur {
		w.cur = base
	}
	idx := int(base>>(tickBits+levelBits*lvl)) & slotMask
	chain := w.unlink(lvl, idx)
	for chain != nil {
		tm := chain
		chain = chain.next
		if tm.state == tmDead {
			w.recycle(tm)
			continue
		}
		w.cascades++
		w.place(tm)
	}
}

// noLimit is the fillBuf/popIfBefore bound of plain dispatch.
const noLimit = Time(math.MaxInt64)

// fillBuf locates the earliest pending tick, advances the cursor to it,
// and extracts its live entries into the dispatch buffer in (at, seq)
// order. It reports false when nothing is pending at or before limit:
// when the next higher-level slot base, the next level-0 tick, or (with
// the wheel empty) the overflow minimum lies beyond limit, it returns
// before moving the cursor there. fillBuf restructures the wheel, so it
// must only run on the dispatch path, and the cursor it leaves must never
// be ahead of the clock the engine exits with: either a dispatch from the
// found tick realigns them, or (popIfBefore) the cursor stays at or
// behind limit and RunUntil then sets the clock to limit. When the scan
// instead drains the wheel — every remaining slot held only cancelled
// entries — no dispatch will realign clock and cursor, so the cursor is
// restored to its entry value: leaving it ahead of the clock would put
// later inserts (clock <= t < cursor) at a negative tick delta, behind
// the cursor, where the rotated occupancy scan reads them as nearly a
// full rotation in the future and dispatch order breaks.
func (w *wheel) fillBuf(limit Time) bool {
	cur0 := w.cur
	for {
		// Promote overflow entries the horizon has reached. When the
		// wheel is empty the cursor can jump straight to the overflow
		// minimum: there is nothing between to dispatch.
		for len(w.over) > 0 {
			tm := w.over[0]
			if tm.state == tmDead {
				w.overPop()
				w.recycle(tm)
				continue
			}
			if levelOf(tickOf(tm.at)-tickOf(w.cur)) >= wheelLevels {
				if w.levels != 0 {
					break // wheel entries all precede the overflow tier
				}
				if tm.at > limit {
					return false
				}
				w.cur = tm.at
			}
			w.overPop()
			w.promotions++
			w.place(tm)
		}

		// Candidate next tick: slot base times, exact slot at level 0.
		var c0 Time
		c0ok := w.occ[0] != 0
		if c0ok {
			c0 = Time((tickOf(w.cur) + int64(w.nextLevel0())) << tickBits)
		}
		var bases [wheelLevels]Time
		var minBase Time
		haveHigher := false
		for mask := w.levels &^ 1; mask != 0; mask &= mask - 1 {
			lvl := bits.TrailingZeros8(mask)
			bases[lvl] = w.nextBase(lvl)
			if !haveHigher || bases[lvl] < minBase {
				minBase, haveHigher = bases[lvl], true
			}
		}
		if haveHigher && (!c0ok || minBase <= c0) {
			if minBase > limit {
				return false // every pending entry is at or after minBase
			}
			// Higher slots at or before the level-0 candidate may hold
			// earlier entries; bring them down first so ties dispatch in
			// seq order. Every level whose slot starts at minBase must
			// cascade in this same pass, highest level first: once the
			// cursor advances to minBase, an equal-base slot at another
			// level would sit in that level's cursor position and read as
			// a full rotation away, trapping its entries.
			for mask := w.levels &^ 1; mask != 0; mask &= mask - 1 {
				lvl := bits.TrailingZeros8(mask)
				if bases[lvl] == minBase {
					w.cascade(lvl, minBase)
				}
			}
			continue
		}
		if !c0ok {
			if len(w.over) == 0 {
				w.cur = cur0 // cancel-only drain: no dispatch follows
				return false
			}
			continue // overflow only: next pass promotes it
		}

		// Extract the level-0 slot: every pending entry of that tick.
		if c0 > limit {
			return false
		}
		if c0 > w.cur {
			w.cur = c0
		}
		w.bufTick = tickOf(c0)
		chain := w.unlink(0, int(w.bufTick)&slotMask)
		for chain != nil {
			tm := chain
			chain = chain.next
			if tm.state == tmDead {
				w.recycle(tm)
				continue
			}
			tm.state = tmBuffered
			w.buf = append(w.buf, tm)
		}
		if len(w.buf) == 0 {
			continue // the slot held only cancelled entries
		}
		w.sortBuf()
		return true
	}
}

// sortBuf orders the freshly extracted buffer by (at, seq): insertion
// sort for the typical small tick, stdlib sort for bursts.
func (w *wheel) sortBuf() {
	buf := w.buf
	if len(buf) > 32 {
		slices.SortFunc(buf, func(a, b *timer) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(buf); i++ {
		tm := buf[i]
		j := i - 1
		for j >= 0 && tm.before(buf[j]) {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = tm
	}
}

// popMin removes and returns the earliest live entry, or nil when none is
// pending. The returned entry is unlinked and no longer counted pending.
func (w *wheel) popMin() *timer { return w.popIfBefore(noLimit) }

// popIfBefore removes and returns the earliest live entry if it is due at
// or before t, else nil. It restructures the wheel only up to t: the
// cursor never passes t, so a RunUntil(t) that then sets the clock to t
// keeps the cursor at or behind the clock. A nil return may leave the
// dispatch buffer loaded with the entries of a tick that starts at or
// before t but holds nothing due by t.
func (w *wheel) popIfBefore(t Time) *timer {
	for {
		for w.bufi < len(w.buf) {
			tm := w.buf[w.bufi]
			if tm.state == tmDead {
				w.bufi++
				w.recycle(tm)
				continue
			}
			if tm.at > t {
				return nil
			}
			w.bufi++
			w.pending--
			return tm
		}
		w.buf = w.buf[:0]
		w.bufi = 0
		if !w.fillBuf(t) {
			return nil
		}
	}
}

// peek returns the earliest live pending time without restructuring the
// wheel: no cascade, no promotion, so the cursor never outruns the engine
// clock on a peek that is not followed by a dispatch. Dispatch does not
// use it: RunUntil calls it only on steps where the watchdog can trip,
// and checkBudget calls it for the sim-time deadline, so that a budget
// error returns with the cursor where the last dispatch left it. It walks
// whole slot chains (peekLevel/pruneScan), which is why it stays off the
// unbudgeted path. Dead entries encountered on the way are pruned, which
// is invisible to live ordering.
func (w *wheel) peek() (Time, bool) {
	for w.bufi < len(w.buf) {
		tm := w.buf[w.bufi]
		if tm.state != tmDead {
			return tm.at, true
		}
		w.recycle(tm)
		w.bufi++
	}
	best, found := Time(0), false
	for mask := w.levels; mask != 0; mask &= mask - 1 {
		lvl := bits.TrailingZeros8(mask)
		if at, ok := w.peekLevel(lvl); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	for len(w.over) > 0 {
		tm := w.over[0]
		if tm.state != tmDead {
			if !found || tm.at < best {
				best, found = tm.at, true
			}
			break
		}
		w.overPop()
		w.recycle(tm)
	}
	return best, found
}

// peekLevel returns the earliest live entry time at one level by scanning
// occupied slots in time order; slots further along hold strictly later
// entries, so the first live hit wins. Chains are pruned of dead entries
// as they are scanned. At levels above 0 the cursor's own slot means the
// next rotation (grouped cascading keeps live current-span entries out of
// it), so it is visited last.
func (w *wheel) peekLevel(lvl int) (Time, bool) {
	if w.occ[lvl] == 0 {
		return 0, false
	}
	shift := uint(tickBits + levelBits*lvl)
	curIdx := int(uint64(w.cur)>>shift) & slotMask
	first, last := 0, wheelSlots-1
	if lvl > 0 {
		first, last = 1, wheelSlots
	}
	for d := first; d <= last; d++ {
		idx := (curIdx + d) & slotMask
		if w.occ[lvl]&(1<<idx) == 0 {
			continue
		}
		if at, ok := w.pruneScan(lvl, idx); ok {
			return at, true
		}
	}
	return 0, false
}

// pruneScan drops dead entries from one slot chain and returns the
// earliest live time in it.
func (w *wheel) pruneScan(lvl, idx int) (Time, bool) {
	var prev *timer
	tm := w.slots[lvl][idx]
	best, found := Time(0), false
	for tm != nil {
		next := tm.next
		if tm.state == tmDead {
			if prev == nil {
				w.slots[lvl][idx] = next
			} else {
				prev.next = next
			}
			w.recycle(tm)
		} else {
			if !found || tm.at < best {
				best, found = tm.at, true
			}
			prev = tm
		}
		tm = next
	}
	if w.slots[lvl][idx] == nil {
		w.occ[lvl] &^= 1 << idx
		if w.occ[lvl] == 0 {
			w.levels &^= 1 << lvl
		}
	}
	return best, found
}

// overflow heap: a plain slice min-heap ordered by (at, seq), kept free of
// interface boxing so pushes never allocate beyond slice growth.

func (w *wheel) overPush(tm *timer) {
	w.over = append(w.over, tm)
	i := len(w.over) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.over[i].before(w.over[parent]) {
			break
		}
		w.over[i], w.over[parent] = w.over[parent], w.over[i]
		i = parent
	}
}

func (w *wheel) overPop() *timer {
	h := w.over
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	w.over = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].before(h[small]) {
			small = l
		}
		if r < n && h[r].before(h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
