package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around the public calls it makes; the program itself is
// not instrumented.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for a root
	op         int           // shared by every span of one operation
	lane       int           // goroutine lane: 0 is the workload's own goroutine
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so untraced rounds pay
// nothing for the call sites.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: op, lane: lane})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration { return t.endAs(id, "") }

// endAs closes span id, renaming it when name is not empty (for calls
// whose layer outcome is known only afterwards, such as a warm-up that
// turned out to be a store load).
func (t *tracer) endAs(id int, name string) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	if name != "" {
		s.name = name
	}
	return s.end - s.start
}

// layerOf is the module a span belongs to: the part of its name before
// the first dot. Spans of the benchmark's own code are in layer "bench".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// selfTimes returns each layer's self time in seconds over the spans
// under a "bench.round" root: the duration of its spans minus the part
// of each span's interval that its child spans cover. Children on
// other lanes overlap one another, so a parent's covered part is the
// union of its children's intervals, and the layers' self times add up
// to the lane-seconds of the round rather than to its wall time.
func (t *tracer) selfTimes() map[string]float64 {
	children := make([][]int, len(t.spans))
	inRound := make([]bool, len(t.spans))
	for i, s := range t.spans {
		// A parent always begins before its children, so it has a
		// lower index and is classified first.
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
			inRound[i] = inRound[s.parent]
		} else {
			inRound[i] = s.name == "bench.round"
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		if !inRound[i] {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := t.spans[c].start, t.spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		out[layerOf(s.name)] += (s.end - s.start - covered).Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events, microseconds), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane, Args: map[string]int{"id": i, "parent": s.parent, "op": s.op}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// explain prints the untraced wall time beside the traced round's
// layer self times, so time that no layer accounts for shows up as the
// self time of the benchmark's own spans.
func explain(w io.Writer, untracedWall, tracedWall float64, self map[string]float64) {
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "explain: untraced wall %.3f s, traced wall %.3f s (self times in lane-seconds)\n", untracedWall, tracedWall)
	var total float64
	for _, l := range layers {
		total += self[l]
		label := l
		if l == "bench" {
			label = "bench (no layer: waiting, checks, scheduling)"
		}
		fmt.Fprintf(w, "  %-48s %9.3f s  %5.1f%% of traced wall\n", label, self[l], 100*self[l]/tracedWall)
	}
	fmt.Fprintf(w, "  %-48s %9.3f s  (%.2f lanes busy on average)\n", "sum", total, total/tracedWall)
}

// fanOut runs fn(lane, i) for every i in [0, n) on `workers`
// goroutines fed in index order — the scheduling of
// harness.Runner.FanOut — passing each goroutine's lane (1..workers) so
// that its spans land on their own track. A cancelled ctx stops the
// feeding; indices already handed out run to completion.
func fanOut(ctx context.Context, n int, fn func(lane, i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range idx {
				fn(lane, i)
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
}
