package bus

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// arbiter is the part of Channel the queue-order test compares.
type arbiter interface {
	Acquire(pri Priority, hold sim.Time, granted func(start sim.Time))
	QueueLen(pri Priority) int
	Grants(pri Priority) uint64
	MeanWaitUS(pri Priority) float64
}

// refChannel is the naive reference arbiter: strict priority, FIFO within
// a priority, dequeue by shifting the whole queue down one slot.
type refChannel struct {
	eng    *sim.Engine
	busy   bool
	queues [numPriorities][]grant
	waitUS [numPriorities]stats.Summary
	grants [numPriorities]uint64
}

func (r *refChannel) Acquire(pri Priority, hold sim.Time, granted func(start sim.Time)) {
	if hold < 0 {
		hold = 0
	}
	r.queues[pri] = append(r.queues[pri], grant{hold: hold, queued: r.eng.Now(), granted: granted})
	if !r.busy {
		r.dispatch()
	}
}

func (r *refChannel) dispatch() {
	for p := range r.queues {
		if len(r.queues[p]) == 0 {
			continue
		}
		g := r.queues[p][0]
		r.queues[p] = append(r.queues[p][:0], r.queues[p][1:]...)
		r.waitUS[p].Add((r.eng.Now() - g.queued).Micros())
		r.grants[p]++
		r.busy = true
		g.granted(r.eng.Now())
		r.eng.Schedule(g.hold, func() {
			r.busy = false
			r.dispatch()
		})
		return
	}
}

func (r *refChannel) QueueLen(pri Priority) int       { return len(r.queues[pri]) }
func (r *refChannel) Grants(pri Priority) uint64      { return r.grants[pri] }
func (r *refChannel) MeanWaitUS(pri Priority) float64 { return r.waitUS[pri].Mean() }

// grantRecord is one observed grant: which request, when it started, and
// both queue depths at that moment.
type grantRecord struct {
	id     int
	start  sim.Time
	memLen int
	ioLen  int
}

// acquisition is one planned Acquire call.
type acquisition struct {
	at   sim.Time
	pri  Priority
	hold sim.Time
}

// queuePlan draws waves of simultaneous acquisitions at both priorities,
// deep enough that the I/O queue runs far past compactMin, plus scattered
// single calls between the waves.
func queuePlan(seed int64) []acquisition {
	rng := rand.New(rand.NewSource(seed))
	var plan []acquisition
	for w := 0; w < 50; w++ {
		base := sim.Time(w) * 20 * sim.Microsecond
		for i := 0; i < 200; i++ {
			pri := PriIO
			if rng.Intn(3) == 0 {
				pri = PriMem
			}
			plan = append(plan, acquisition{at: base, pri: pri, hold: sim.Time(rng.Intn(40) - 2)})
		}
		for i := 0; i < 20; i++ {
			plan = append(plan, acquisition{
				at:   base + sim.Time(rng.Int63n(int64(20*sim.Microsecond))),
				pri:  Priority(rng.Intn(int(numPriorities))),
				hold: sim.Time(rng.Intn(40)),
			})
		}
	}
	return plan
}

// driveQueue runs the plan against a and returns the grants in the order
// they happened. Every fourth granted request (up to a nesting depth of
// three) calls Acquire from inside its granted callback, while the channel
// is busy, so pushes land on a queue whose head is mid-advance.
func driveQueue(eng *sim.Engine, a arbiter, plan []acquisition) (recs []grantRecord, maxIO int) {
	next := len(plan)
	var acquire func(id, depth int, pri Priority, hold sim.Time)
	acquire = func(id, depth int, pri Priority, hold sim.Time) {
		a.Acquire(pri, hold, func(start sim.Time) {
			mem, io := a.QueueLen(PriMem), a.QueueLen(PriIO)
			if io > maxIO {
				maxIO = io
			}
			recs = append(recs, grantRecord{id: id, start: start, memLen: mem, ioLen: io})
			if id%4 == 0 && depth < 3 {
				child := next
				next++
				acquire(child, depth+1, Priority(child%2), sim.Time(child%37))
			}
		})
	}
	for i, p := range plan {
		eng.At(p.at, func() { acquire(i, 0, p.pri, p.hold) })
	}
	eng.Run()
	return recs, maxIO
}

// TestChannelQueueMatchesReference checks the head-indexed by-value grant
// queue against the naive reference over more than 10k acquisitions at
// both priorities: grant order, start times, queue depths at every grant,
// grant counts and mean waits must all be identical.
func TestChannelQueueMatchesReference(t *testing.T) {
	plan := queuePlan(5)
	engC, engR := sim.NewEngine(), sim.NewEngine()
	c, r := NewChannel(engC, 0), &refChannel{eng: engR}
	got, maxIO := driveQueue(engC, c, plan)
	want, _ := driveQueue(engR, r, plan)

	if len(got) < 10000 {
		t.Fatalf("only %d grants; the test needs at least 10k", len(got))
	}
	if maxIO < 2*compactMin {
		t.Fatalf("I/O queue peaked at %d, never deep enough to compact (compactMin %d)", maxIO, compactMin)
	}
	if len(got) != len(want) {
		t.Fatalf("channel made %d grants, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant %d: channel %+v, reference %+v", i, got[i], want[i])
		}
	}
	for p := Priority(0); p < numPriorities; p++ {
		if c.QueueLen(p) != 0 || r.QueueLen(p) != 0 {
			t.Fatalf("priority %d: queues not drained (%d, %d)", p, c.QueueLen(p), r.QueueLen(p))
		}
		if c.Grants(p) != r.Grants(p) {
			t.Fatalf("priority %d: %d grants, reference %d", p, c.Grants(p), r.Grants(p))
		}
		if c.MeanWaitUS(p) != r.MeanWaitUS(p) {
			t.Fatalf("priority %d: mean wait %v us, reference %v us", p, c.MeanWaitUS(p), r.MeanWaitUS(p))
		}
	}
	if engC.Now() != engR.Now() {
		t.Fatalf("clock ended at %v, reference %v", engC.Now(), engR.Now())
	}
}
