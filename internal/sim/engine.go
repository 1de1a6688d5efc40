// Package sim provides the deterministic discrete-event simulation
// engine underneath the Rebound manycore model. It is single-threaded:
// events fire in (time, insertion-order) order, so a given configuration
// and seed always produces the same execution.
package sim

import (
	"math/bits"
	"slices"
)

// Cycle is a point in simulated time, in core clock cycles (1 GHz in the
// paper's configuration, so 1 cycle = 1 ns).
type Cycle = uint64

// Tag identifies what a scheduled event will do, as data: a small kind
// plus an index (typically a processor id). Tagged events are the
// foundation of machine snapshots — a pending tagged event can be saved
// as (at, seq, tag) and re-bound to a fresh closure on restore, whereas
// an untagged event is an opaque closure that cannot outlive its
// capture environment. The zero Tag marks an untagged event.
type Tag struct {
	Kind uint8
	ID   int32
}

// SavedEvent is the snapshot form of one pending tagged event. Key is
// the deterministic ordering key of a keyed event (see ScheduleKeyed);
// it is 0 for every event scheduled through the plain APIs, so legacy
// snapshots are unchanged.
type SavedEvent struct {
	At  Cycle
	Seq uint64
	Tag Tag
	Key uint64 `json:",omitempty"`
}

type event struct {
	at  Cycle
	key uint64
	seq uint64
	tag Tag
	fn  func()
}

// before orders events by (time, key, insertion order). Plain events
// all carry key 0, so among themselves the order is the historical
// (time, insertion order); keyed events sort after plain events at the
// same cycle and among themselves by their caller-chosen key, which is
// what makes their firing order independent of insertion order (and
// hence of shard count, for events injected across ShardedEngine
// barriers).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// compareEvents is before as a three-way comparison, for sorting.
func compareEvents(a, b event) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// compareSaved is compareEvents for the snapshot form.
func compareSaved(a, b SavedEvent) int {
	return compareEvents(event{at: a.At, key: a.Key, seq: a.Seq}, event{at: b.At, key: b.Key, seq: b.Seq})
}

// The ring (timing wheel) spans wheelSize cycles: one FIFO bucket per
// cycle in [now, now+wheelSize). Measured on Figs 6.2 and 6.5, 99.996%
// of events are scheduled less than 1024 cycles ahead, so the span is
// a constant, not a knob.
const (
	wheelSize  = 1 << 10
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// slot is one ring event in the engine's slab. Ring events are plain
// (key 0), so no key is stored. next links the bucket's list (or the
// free list) by slab index, 0 meaning none; last, kept only in a
// bucket's first slot, is the index of its final one.
type slot struct {
	at   Cycle
	seq  uint64
	fn   func()
	tag  Tag
	next int32
	last int32
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Pending events live in two tiers. Plain events due within wheelSize
// cycles — nearly all traffic, processor step events 2–511 cycles
// ahead — go to a timing wheel (Varghese & Lauck, SOSP 1987): a ring
// of per-cycle FIFO buckets over a slab of slots with int32 links and a
// free list, plus a bitmap of non-empty buckets, so insert and remove
// are O(1) and finding the next cycle is a bitmap scan. Far events and
// keyed events (ScheduleKeyed, the event plane's) go to a typed binary
// min-heap. Each step fires the smaller of the ring's head and the
// heap's root under before, so the firing order is exactly (time, key,
// insertion order) whichever tier holds an event: a bucket holds the
// events of one cycle in seq order, and a same-cycle event in the heap
// is ordered against it by before. Steady-state scheduling allocates
// nothing; the slab and heap grow only with the pending-event count.
type Engine struct {
	now     Cycle
	seq     uint64
	stopped bool
	// untagged counts pending events with a zero Tag; a snapshot is only
	// possible when it is zero (every pending event re-bindable).
	untagged int

	// The ring. head[b] is the slab index of bucket b's first event, 0
	// when empty; occ marks the non-empty buckets. Every ring event lies
	// in [now, now+wheelSize), so bucket at&wheelMask holds one cycle's
	// events. slots[0] is a sentinel so that link 0 can mean none.
	head  [wheelSize]int32
	occ   [wheelWords]uint64
	slots []slot
	free  int32
	ringN int

	// heap holds far and keyed events.
	heap []event
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// add inserts an event scheduled delay cycles ahead, taking the next
// sequence number: into the ring when it is plain and near, else into
// the heap.
func (e *Engine) add(delay Cycle, key uint64, tag Tag, fn func()) {
	e.seq++
	if key == 0 && delay < wheelSize {
		e.wheelPush(e.now+delay, e.seq, tag, fn)
		return
	}
	e.push(event{at: e.now + delay, key: key, seq: e.seq, tag: tag, fn: fn})
}

// wheelPush appends a plain event to its cycle's bucket. at must lie in
// [now, now+wheelSize) and seq must exceed every seq already in that
// bucket.
func (e *Engine) wheelPush(at Cycle, seq uint64, tag Tag, fn func()) {
	i := e.free
	if i == 0 {
		i = e.grow()
	}
	s := &e.slots[i]
	e.free = s.next
	// Field by field: a composite literal is built on the stack and
	// copied with wide loads that stall on store forwarding.
	s.at, s.seq, s.fn, s.tag, s.next = at, seq, fn, tag, 0
	b := at & wheelMask
	if h := e.head[b]; h == 0 {
		e.head[b] = i
		s.last = i
		e.occ[b>>6] |= 1 << (b & 63)
	} else {
		hs := &e.slots[h]
		e.slots[hs.last].next = i
		hs.last = i
	}
	e.ringN++
}

// grow adds a slot to the slab (and the sentinel, on first use) and
// returns it as the free list's only entry.
func (e *Engine) grow() int32 {
	if len(e.slots) == 0 {
		e.slots = append(e.slots, slot{})
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// firstBucket returns the bucket of the ring's earliest event: the
// first non-empty bucket at or after now's, wrapping. The ring must
// not be empty.
func (e *Engine) firstBucket() uint {
	i := uint(e.now) & wheelMask
	w := i >> 6
	if m := e.occ[w] >> (i & 63); m != 0 {
		return i + uint(bits.TrailingZeros64(m))
	}
	for k := uint(1); k <= wheelWords; k++ {
		w2 := (w + k) & (wheelWords - 1)
		if m := e.occ[w2]; m != 0 {
			return w2<<6 + uint(bits.TrailingZeros64(m))
		}
	}
	panic("sim: empty ring")
}

// wheelPop unlinks bucket b's first event and returns its slot to the
// free list.
func (e *Engine) wheelPop(b uint) (at Cycle, tag Tag, fn func()) {
	b &= wheelMask
	h := e.head[b]
	s := &e.slots[h]
	if n := s.next; n == 0 {
		e.head[b] = 0
		e.occ[b>>6] &^= 1 << (b & 63)
	} else {
		e.head[b] = n
		e.slots[n].last = s.last
	}
	at, tag, fn = s.at, s.tag, s.fn
	s.fn = nil // release the closure
	s.next = e.free
	e.free = h
	e.ringN--
	return at, tag, fn
}

// push inserts ev into the heap, sifting up to restore the heap order.
func (e *Engine) push(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// pop removes and returns the heap's minimum event. The heap must not
// be empty.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn reference
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].before(h[least]) {
			least = l
		}
		if r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	e.heap = h
	return top
}

// fromHeap is next's bucket value for an event at the heap's root.
const fromHeap = ^uint(0)

// next locates the earliest pending event: its ring bucket, or
// fromHeap. ok is false when nothing is pending.
func (e *Engine) next() (b uint, at Cycle, ok bool) {
	if e.ringN > 0 {
		b = e.firstBucket()
		s := &e.slots[e.head[b&wheelMask]]
		if len(e.heap) == 0 || !e.heap[0].before(event{at: s.at, seq: s.seq}) {
			return b, s.at, true
		}
	} else if len(e.heap) == 0 {
		return 0, 0, false
	}
	return fromHeap, e.heap[0].at, true
}

// fire removes the event next located and runs it.
func (e *Engine) fire(b uint) {
	var tag Tag
	var fn func()
	if b == fromHeap {
		ev := e.pop()
		e.now, tag, fn = ev.at, ev.tag, ev.fn
	} else {
		e.now, tag, fn = e.wheelPop(b)
	}
	if tag == (Tag{}) {
		e.untagged--
	}
	fn()
}

// Schedule runs fn after delay cycles. A delay of 0 runs fn after the
// current event completes (still at the same cycle). Events scheduled
// for the same cycle fire in scheduling order.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.untagged++
	e.add(delay, 0, Tag{}, fn)
}

// ScheduleTagged is Schedule for an event whose behaviour is fully
// determined by its tag plus restorable simulator state: a machine
// snapshot saves it as data and a restore re-binds its closure from the
// tag. tag must be non-zero — a zero tag would corrupt the untagged
// counter that gates snapshot safety, so it panics instead.
func (e *Engine) ScheduleTagged(delay Cycle, tag Tag, fn func()) {
	if tag == (Tag{}) {
		panic("sim: ScheduleTagged with a zero tag (use Schedule)")
	}
	e.add(delay, 0, tag, fn)
}

// ScheduleKeyed is Schedule for an event whose same-cycle firing order
// must be independent of scheduling order: same-cycle events fire in
// ascending key order (ties broken by insertion order), and all keyed
// events fire after any plain-scheduled events at the same cycle. The
// caller owns key uniqueness; the stored key is key+1 so that no user
// key collides with the plain-event key 0.
func (e *Engine) ScheduleKeyed(delay Cycle, key uint64, fn func()) {
	e.untagged++
	e.add(delay, key+1, Tag{}, fn)
}

// ScheduleKeyedTagged combines ScheduleKeyed ordering with
// ScheduleTagged snapshotability. tag must be non-zero.
func (e *Engine) ScheduleKeyedTagged(delay Cycle, key uint64, tag Tag, fn func()) {
	if tag == (Tag{}) {
		panic("sim: ScheduleKeyedTagged with a zero tag (use ScheduleKeyed)")
	}
	e.add(delay, key+1, tag, fn)
}

// scheduleKeyedAbs schedules fn at an absolute cycle with an
// already-shifted internal key. It is the ShardedEngine barrier's
// key-preserving injection path; rawKey 0 is a plain event.
func (e *Engine) scheduleKeyedAbs(when Cycle, rawKey uint64, fn func()) {
	if when < e.now {
		when = e.now
	}
	e.untagged++
	e.add(when-e.now, rawKey, Tag{}, fn)
}

// AllTagged reports whether every pending event carries a tag, i.e.
// whether the queue is snapshotable.
func (e *Engine) AllTagged() bool { return e.untagged == 0 }

// Save captures the scheduler state — current cycle, sequence counter
// and the pending events in canonical (at, key, seq) order, which is
// their firing order — appending the events to buf[:0]. The order
// depends only on the pending set, not on which tier holds an event.
// It fails (ok=false) when any pending event is untagged.
func (e *Engine) Save(buf []SavedEvent) (now Cycle, seq uint64, events []SavedEvent, ok bool) {
	if e.untagged != 0 {
		return 0, 0, buf[:0], false
	}
	buf = buf[:0]
	for w, m := range e.occ {
		for ; m != 0; m &= m - 1 {
			for i := e.head[w<<6+bits.TrailingZeros64(m)]; i != 0; i = e.slots[i].next {
				s := &e.slots[i]
				buf = append(buf, SavedEvent{At: s.at, Seq: s.seq, Tag: s.tag})
			}
		}
	}
	for _, ev := range e.heap {
		buf = append(buf, SavedEvent{At: ev.at, Seq: ev.seq, Tag: ev.tag, Key: ev.key})
	}
	slices.SortFunc(buf, compareSaved)
	return e.now, e.seq, buf, true
}

// Load restores scheduler state captured by Save: the clock, the
// sequence counter and the pending queue, with each event's closure
// re-bound through resolve. events may be in any order: snapshots
// stored by older builds hold heap-array order.
func (e *Engine) Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func()) {
	e.Reset()
	e.now, e.seq = now, seq
	for _, sv := range events {
		if sv.Tag == (Tag{}) {
			e.untagged++
		}
		e.heap = append(e.heap, event{at: sv.At, key: sv.Key, seq: sv.Seq, tag: sv.Tag, fn: resolve(sv.Tag)})
	}
	// Sorted, the events reach each ring bucket in seq order, and what
	// stays behind is still sorted, which is a valid heap.
	slices.SortFunc(e.heap, compareEvents)
	keep := e.heap[:0]
	for _, ev := range e.heap {
		if ev.key == 0 && ev.at-now < wheelSize {
			e.wheelPush(ev.at, ev.seq, ev.tag, ev.fn)
		} else {
			keep = append(keep, ev)
		}
	}
	clear(e.heap[len(keep):])
	e.heap = keep
}

// Reset returns the engine to its just-constructed state: cycle 0,
// empty queue. Used by Machine.Reset to recycle a machine's allocations
// across runs.
func (e *Engine) Reset() {
	e.now, e.seq, e.stopped, e.untagged = 0, 0, false, 0
	clear(e.heap)
	e.heap = e.heap[:0]
	clear(e.slots) // release stale fn references
	e.slots = e.slots[:0]
	e.head = [wheelSize]int32{}
	e.occ = [wheelWords]uint64{}
	e.free, e.ringN = 0, 0
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		when = e.now
	}
	e.Schedule(when-e.now, fn)
}

// AdvanceTo moves the clock forward to when without firing anything; a
// cycle at or before the current one is a no-op. The machine's
// event-plane settle path aligns idle shard clocks to the epoch
// frontier before re-seeding step events, so the seeded times do not
// depend on when each shard's queue happened to empty. Advancing past a
// pending event would reorder time, so it panics.
func (e *Engine) AdvanceTo(when Cycle) {
	if when <= e.now {
		return
	}
	if _, at, ok := e.next(); ok && at < when {
		panic("sim: AdvanceTo past a pending event")
	}
	e.now = when
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.ringN + len(e.heap) }

// Stop makes Run return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events until the queue is empty, Stop is called, or the
// next event lies beyond limit (0 means no limit). In the last case the
// clock moves forward to limit; it never moves back. It returns the
// cycle at which the engine stopped.
func (e *Engine) Run(limit Cycle) Cycle {
	e.stopped = false
	for !e.stopped {
		b, at, ok := e.next()
		if !ok {
			break
		}
		if limit != 0 && at > limit {
			e.now = max(e.now, limit)
			return e.now
		}
		e.fire(b)
	}
	return e.now
}

// Step fires exactly one event if any is pending and returns whether an
// event fired. Used by tests that need fine-grained control.
func (e *Engine) Step() bool {
	b, _, ok := e.next()
	if ok {
		e.fire(b)
	}
	return ok
}
