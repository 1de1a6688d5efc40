package sim

import (
	"strconv"
	"testing"
)

// stepLoad is the event queue's traffic in the simulator, reduced to
// its shape: P processors, each with one tagged step event pending
// that reschedules itself when it fires. Delays follow the mix
// measured on Figs 6.2 and 6.5 at quick scale (about 55% 2–3 cycles,
// 32% 4–15 and 13% 64–511).
type stepLoad struct {
	e      *Engine
	delays []Cycle
	steps  []func()
	next   int // index into delays
	left   int // events to fire before Stop
}

func newStepLoad(procs int) *stepLoad {
	l := &stepLoad{e: NewEngine(), delays: make([]Cycle, 4096), steps: make([]func(), procs)}
	rng := NewRNG(7)
	for i := range l.delays {
		switch u := rng.Intn(100); {
		case u < 55:
			l.delays[i] = Cycle(2 + rng.Intn(2))
		case u < 87:
			l.delays[i] = Cycle(4 + rng.Intn(12))
		default:
			l.delays[i] = Cycle(64 + rng.Intn(448))
		}
	}
	for p := range l.steps {
		tag := Tag{Kind: 1, ID: int32(p)}
		l.steps[p] = func() {
			if l.left--; l.left == 0 {
				l.e.Stop()
			}
			l.next = (l.next + 1) & (len(l.delays) - 1)
			l.e.ScheduleTagged(l.delays[l.next], tag, l.steps[p])
		}
		l.e.ScheduleTagged(l.delays[p], tag, l.steps[p])
	}
	return l
}

// fire runs the load for n events.
func (l *stepLoad) fire(n int) {
	l.left = n
	l.e.Run(0)
}

// BenchmarkEngineSteps measures one event's push and pop under the
// step load, at 8, 16 and 64 pending events:
//
//	go test -run '^$' -bench EngineSteps -count 5 ./internal/sim
func BenchmarkEngineSteps(b *testing.B) {
	for _, procs := range []int{8, 16, 64} {
		b.Run(strconv.Itoa(procs), func(b *testing.B) {
			l := newStepLoad(procs)
			l.fire(10000) // reach the steady state: slab and heap grown
			b.ReportAllocs()
			b.ResetTimer()
			l.fire(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// TestEngineStepsAllocFree pins the steady-state event loop at zero
// allocations per event.
func TestEngineStepsAllocFree(t *testing.T) {
	for _, procs := range []int{8, 16, 64} {
		l := newStepLoad(procs)
		l.fire(10000)
		if avg := testing.AllocsPerRun(20, func() { l.fire(1000) }); avg != 0 {
			t.Fatalf("%d procs: %.1f allocs per 1000 events, want 0", procs, avg)
		}
	}
}
