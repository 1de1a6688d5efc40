package sim

import (
	"slices"
	"testing"
)

// refEngine is the reference the fuzz test holds Engine to: the event
// order spelled out as a slice kept sorted by (at, key, seq), with
// none of Engine's tiers.
type refEngine struct {
	now     Cycle
	seq     uint64
	stopped bool
	q       []event
}

func (r *refEngine) Now() Cycle { return r.now }

func (r *refEngine) add(delay Cycle, key uint64, tag Tag, fn func()) {
	r.seq++
	ev := event{at: r.now + delay, key: key, seq: r.seq, tag: tag, fn: fn}
	i, _ := slices.BinarySearchFunc(r.q, ev, compareEvents)
	r.q = slices.Insert(r.q, i, ev)
}

func (r *refEngine) Schedule(d Cycle, fn func())                { r.add(d, 0, Tag{}, fn) }
func (r *refEngine) ScheduleTagged(d Cycle, tag Tag, fn func()) { r.add(d, 0, tag, fn) }
func (r *refEngine) ScheduleKeyed(d Cycle, k uint64, fn func()) { r.add(d, k+1, Tag{}, fn) }
func (r *refEngine) ScheduleKeyedTagged(d Cycle, k uint64, tag Tag, fn func()) {
	r.add(d, k+1, tag, fn)
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refEngine) Run(limit Cycle) Cycle {
	r.stopped = false
	for len(r.q) > 0 && !r.stopped {
		if limit != 0 && r.q[0].at > limit {
			r.now = max(r.now, limit)
			return r.now
		}
		r.Step()
	}
	return r.now
}

func (r *refEngine) Stop() { r.stopped = true }

func (r *refEngine) AdvanceTo(when Cycle) {
	if when <= r.now {
		return
	}
	if len(r.q) > 0 && r.q[0].at < when {
		panic("ref: AdvanceTo past a pending event")
	}
	r.now = when
}

func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) AllTagged() bool {
	for _, ev := range r.q {
		if ev.tag == (Tag{}) {
			return false
		}
	}
	return true
}

func (r *refEngine) Save(buf []SavedEvent) (Cycle, uint64, []SavedEvent, bool) {
	buf = buf[:0]
	if !r.AllTagged() {
		return 0, 0, buf, false
	}
	for _, ev := range r.q {
		buf = append(buf, SavedEvent{At: ev.at, Seq: ev.seq, Tag: ev.tag, Key: ev.key})
	}
	return r.now, r.seq, buf, true
}

func (r *refEngine) Load(now Cycle, seq uint64, events []SavedEvent, resolve func(Tag) func()) {
	r.now, r.seq, r.stopped, r.q = now, seq, false, nil
	for _, sv := range events {
		r.q = append(r.q, event{at: sv.At, key: sv.Key, seq: sv.Seq, tag: sv.Tag, fn: resolve(sv.Tag)})
	}
	slices.SortFunc(r.q, compareEvents)
}

func (r *refEngine) Reset() { *r = refEngine{} }

// engineAPI is the surface the fuzz program drives, on Engine and on
// refEngine alike.
type engineAPI interface {
	Now() Cycle
	Schedule(Cycle, func())
	ScheduleTagged(Cycle, Tag, func())
	ScheduleKeyed(Cycle, uint64, func())
	ScheduleKeyedTagged(Cycle, uint64, Tag, func())
	Step() bool
	Run(Cycle) Cycle
	Stop()
	AdvanceTo(Cycle)
	Pending() int
	AllTagged() bool
	Save([]SavedEvent) (Cycle, uint64, []SavedEvent, bool)
	Load(Cycle, uint64, []SavedEvent, func(Tag) func())
	Reset()
}

// fuzzDelays straddles the ring's span: same-cycle, near, the last
// ring cycle, the first heap cycle and far beyond.
var fuzzDelays = [...]Cycle{0, 0, 1, 2, 3, 5, 15, 64, 511,
	wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize - 1, 2 * wheelSize, 10*wheelSize + 7, 1 << 20}

// fuzzSpawnCap bounds the events whose handlers schedule more, so every
// program terminates.
const fuzzSpawnCap = 400

type firing struct {
	id int
	at Cycle
}

// fuzzRun is one engine driven by the decoded program. Event ids are
// handed out in scheduling order, so two runs of one program agree on
// them as long as their engines agree on the firing order.
type fuzzRun struct {
	eng    engineAPI
	data   []byte
	nextID int
	fired  []firing
}

func (f *fuzzRun) byteAt(i int) byte { return f.data[i%len(f.data)] }

// handler is event id's body: log the firing, then, as the input
// dictates, schedule up to two more events and call Stop.
func (f *fuzzRun) handler(id int) func() {
	return func() {
		f.fired = append(f.fired, firing{id, f.eng.Now()})
		b := f.byteAt(3*id + 1)
		if id < fuzzSpawnCap {
			for c := 0; c < int(b&3)%3; c++ {
				f.schedule(f.byteAt(5*id+c), f.byteAt(7*id+c+2))
			}
		}
		if b&0x40 != 0 {
			f.eng.Stop()
		}
	}
}

// schedule adds one event: kind from sel's low bits (plain, tagged,
// keyed, keyed+tagged), a small key from its high bits so keys tie,
// and a delay from fuzzDelays.
func (f *fuzzRun) schedule(sel, dsel byte) {
	id := f.nextID
	f.nextID++
	fn := f.handler(id)
	delay := fuzzDelays[int(dsel)%len(fuzzDelays)]
	tag := Tag{Kind: 1, ID: int32(id)}
	key := uint64(sel>>2) % 3
	switch sel % 4 {
	case 0:
		f.eng.Schedule(delay, fn)
	case 1:
		f.eng.ScheduleTagged(delay, tag, fn)
	case 2:
		f.eng.ScheduleKeyed(delay, key, fn)
	default:
		f.eng.ScheduleKeyedTagged(delay, key, tag, fn)
	}
}

func (f *fuzzRun) resolve(tag Tag) func() { return f.handler(int(tag.ID)) }

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// checkEngineOrder runs the program in data on an Engine and on the
// reference in lockstep and fails at the first operation after which
// they differ in firing sequence, clock, pending count, snapshot
// safety or saved queue.
func checkEngineOrder(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	if len(data) > 600 {
		data = data[:600]
	}
	got := &fuzzRun{eng: NewEngine(), data: data}
	want := &fuzzRun{eng: &refEngine{}, data: data}
	runs := [2]*fuzzRun{got, want}
	var gotBuf, wantBuf []SavedEvent
	checked := 0 // firings already compared
	for pc := 0; pc < len(data); {
		op := data[pc]
		arg := func(k int) byte { return data[(pc+k)%len(data)] }
		var desc string
		switch op % 10 {
		case 0, 1, 2, 3:
			desc = "schedule"
			for _, r := range runs {
				r.schedule(arg(1), arg(2))
			}
			pc += 3
		case 4:
			desc = "Step"
			a, b := got.eng.Step(), want.eng.Step()
			if a != b {
				t.Fatalf("op %d %s: Step = %v, reference %v", pc, desc, a, b)
			}
			pc++
		case 5:
			limit := want.eng.Now() + fuzzDelays[int(arg(1))%len(fuzzDelays)]
			if now := want.eng.Now(); arg(1)&0x80 != 0 && now > 1 {
				limit = now - 1 // a limit in the past must not move the clock back
			}
			desc = "Run(limit)"
			a, b := got.eng.Run(limit), want.eng.Run(limit)
			if a != b {
				t.Fatalf("op %d %s: returned %d, reference %d", pc, desc, a, b)
			}
			pc += 2
		case 6:
			desc = "Run(0)"
			a, b := got.eng.Run(0), want.eng.Run(0)
			if a != b {
				t.Fatalf("op %d %s: returned %d, reference %d", pc, desc, a, b)
			}
			pc++
		case 7:
			when := want.eng.Now() + fuzzDelays[int(arg(1))%len(fuzzDelays)]
			desc = "AdvanceTo"
			a := panics(func() { got.eng.AdvanceTo(when) })
			b := panics(func() { want.eng.AdvanceTo(when) })
			if a != b {
				t.Fatalf("op %d %s: panicked %v, reference %v", pc, desc, a, b)
			}
			pc += 2
		case 8:
			desc = "Save/Step/Load"
			var gNow, wNow Cycle
			var gSeq, wSeq uint64
			var gOK, wOK bool
			gNow, gSeq, gotBuf, gOK = got.eng.Save(gotBuf)
			wNow, wSeq, wantBuf, wOK = want.eng.Save(wantBuf)
			if gOK != wOK || gNow != wNow || gSeq != wSeq || !slices.Equal(gotBuf, wantBuf) {
				t.Fatalf("op %d %s: Save = (%d, %d, %v, %v), reference (%d, %d, %v, %v)",
					pc, desc, gNow, gSeq, gotBuf, gOK, wNow, wSeq, wantBuf, wOK)
			}
			if gOK {
				// Load must not depend on the saved order: rotate it.
				rot := slices.Clone(gotBuf)
				if len(rot) > 0 {
					k := int(arg(1)) % len(rot)
					rot = append(rot[k:], rot[:k]...)
				}
				for _, r := range runs {
					r.eng.Step()
					r.eng.Load(gNow, gSeq, rot, r.resolve)
				}
			}
			pc += 2
		default:
			desc = "Reset"
			for _, r := range runs {
				r.eng.Reset()
			}
			pc++
		}
		if !slices.Equal(got.fired[min(checked, len(got.fired)):], want.fired[min(checked, len(want.fired)):]) {
			t.Fatalf("op %d %s: fired %v, reference %v", pc, desc, got.fired[checked:], want.fired[checked:])
		}
		checked = len(got.fired)
		if a, b := got.eng.Now(), want.eng.Now(); a != b {
			t.Fatalf("op %d %s: Now = %d, reference %d", pc, desc, a, b)
		}
		if a, b := got.eng.Pending(), want.eng.Pending(); a != b {
			t.Fatalf("op %d %s: Pending = %d, reference %d", pc, desc, a, b)
		}
		if a, b := got.eng.AllTagged(), want.eng.AllTagged(); a != b {
			t.Fatalf("op %d %s: AllTagged = %v, reference %v", pc, desc, a, b)
		}
	}
	// Drain: whatever is left must fire in the same order too.
	got.eng.Run(0)
	want.eng.Run(0)
	for got.eng.Pending() > 0 || want.eng.Pending() > 0 {
		got.eng.Run(0)
		want.eng.Run(0)
	}
	if !slices.Equal(got.fired, want.fired) {
		t.Fatalf("drain: fired %v, reference %v", got.fired, want.fired)
	}
}

// FuzzEngineOrder checks Engine against refEngine on programs that mix
// plain, tagged and keyed events around the ring's span with Step,
// Run(limit), Stop, AdvanceTo, Save/Load mid-run and Reset:
//
//	go test -run '^$' -fuzz FuzzEngineOrder -fuzztime 30s ./internal/sim
func FuzzEngineOrder(f *testing.F) {
	// Hand-written programs: ties at one cycle across tiers, the
	// wheelSize boundary, Save/Load with far and keyed events pending.
	f.Add([]byte{1, 1, 9, 0, 0, 9, 2, 2, 9, 3, 3, 9, 6})
	f.Add([]byte{1, 1, 10, 1, 5, 9, 5, 12, 4, 4, 6})
	f.Add([]byte{1, 5, 14, 1, 1, 10, 8, 3, 5, 11, 6, 9, 1, 1, 1, 6})
	f.Add([]byte{3, 7, 2, 2, 6, 2, 1, 1, 2, 7, 3, 4, 4, 8, 1, 6})
	f.Add([]byte{1, 65, 4, 1, 129, 3, 6, 7, 8, 6})
	rng := NewRNG(1)
	for n := 0; n < 24; n++ {
		data := make([]byte, 16+rng.Intn(200))
		for i := range data {
			data[i] = byte(rng.Next())
		}
		f.Add(data)
	}
	f.Fuzz(checkEngineOrder)
}
