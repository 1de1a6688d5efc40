package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/stats"
)

// figures regenerates Figures 6.2 and 6.5 at quick scale on the
// process runner, the way cmd/figures -scale quick does, with the
// workload seed folded into Scale.Seed. Fig 6.2 is Rebound-only, so
// the runner's machine pool never hits there; Fig 6.5 crosses three
// schemes with a baseline per application, so pooled Machine.Reset
// does most of its builds. Store, snapshots and service are bypassed.
type figures struct {
	sc harness.Scale
	// fig62 and fig65 are the distinct cells each figure simulates, in
	// the figure's own order; fig65 leaves out the Rebound cells Fig 6.2
	// already simulated (they are memo hits on one runner).
	fig62, fig65 []harness.Spec
}

func newFigures(seed uint64) *figures {
	sc := harness.Quick
	sc.Seed = seed
	return &figures{sc: sc}
}

func (f *figures) setup(string) error {
	harness.SetWorkers(workers)
	f.fig62 = harness.Fig62Specs(f.sc)
	seen := make(map[string]bool)
	for _, s := range f.fig62 {
		seen[s.Key()] = true
	}
	f.fig65 = nil
	for _, s := range harness.Fig65Specs(f.sc) {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			f.fig65 = append(f.fig65, s)
		}
	}
	return nil
}

func (f *figures) teardown() { harness.SetWorkers(workers) }

// first simulates the first cell of Fig 6.2 on the process runner.
func (f *figures) first() error {
	_, err := harness.Default().RunOne(context.Background(), f.fig62[0])
	return err
}

func (f *figures) cells() []harness.Spec {
	return append(append([]harness.Spec(nil), f.fig62...), f.fig65...)
}

func (f *figures) run(tr *tracer) (*round, error) {
	if tr != nil {
		return f.runTraced(tr)
	}
	r := newRound()
	runner := harness.Default()
	var mu sync.Mutex
	start := now()
	// The same calls Runner.Run makes — RunOne on each cell across the
	// worker pool, in order — made here so each cell can be timed. The
	// figure drivers then assemble their tables from the runner's memo,
	// exactly as cmd/figures does.
	fanOut := func(specs []harness.Spec) {
		runner.FanOut(context.Background(), len(specs), func(i int) {
			t0 := time.Now()
			_, err := runner.RunOne(context.Background(), specs[i])
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			r.lat = append(r.lat, float64(d)/1e6)
			if err != nil {
				r.fail("cell %s: %v", specs[i].Key(), err)
			}
		})
	}
	var tables []harness.TableData
	err := catch(func() {
		fanOut(f.fig62)
		tables = append(tables, harness.Fig62(f.sc)...)
		fanOut(f.fig65)
		tables = append(tables, harness.Fig65(f.sc))
	})
	r.wall, r.cpu = start.since()
	if err != nil {
		r.fail("figure drivers: %v", err)
	}

	// The digest covers the cells' statistics, which the tables are a
	// function of, so that traced rounds (which assemble no tables)
	// compare with untraced ones.
	h := sha256.New()
	for _, td := range tables {
		for _, row := range td.Rows {
			for _, v := range row.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					r.fail("%s row %s: value %v", td.Title, row.Label, v)
				}
			}
		}
	}
	var agg simAcc
	for _, spec := range f.cells() {
		res, err := runner.RunOne(context.Background(), spec)
		r.ops++
		if err != nil {
			continue // already counted by the fan-out
		}
		r.instr += res.St.TotalInstructions()
		addCell(&agg, h, res.St, res.Cycles)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	agg.counters(r.sim)
	return r, nil
}

// runTraced simulates the same cells by composing the public calls
// underneath Runner.RunOne — harness.Build, or Machine.Reset on a
// pooled machine with the same harness.ReuseKey, then Machine.Run and
// FinalizeStats — so each layer gets its own span. Tables are not
// assembled (that needs the runner's memo); the per-cell statistics are
// checked against the untraced round's instead.
func (f *figures) runTraced(tr *tracer) (*round, error) {
	r := newRound()
	var mu sync.Mutex
	pool := make(map[string][]*machine.Machine)
	type cell struct {
		st     *stats.Stats
		cycles uint64
	}
	specs := f.cells()
	out := make([]cell, len(specs))
	var runNS float64
	var runInstr uint64

	// prepare takes a pooled machine of the cell's ReuseKey and resets
	// it to the cell's scheme, or builds one.
	prepare := func(spec harness.Spec, parent, op, lane int) (*machine.Machine, error) {
		key := harness.ReuseKey(spec)
		mu.Lock()
		var m *machine.Machine
		if ms := pool[key]; len(ms) > 0 {
			m, pool[key] = ms[len(ms)-1], ms[:len(ms)-1]
		}
		mu.Unlock()
		if m == nil {
			id := tr.begin("harness.build", parent, op, lane)
			defer tr.end(id)
			return harness.Build(spec)
		}
		id := tr.begin("machine.reset", parent, op, lane)
		defer tr.end(id)
		sch, err := harness.SchemeFor(spec.Scheme)
		if err != nil {
			return nil, err
		}
		m.Reset(sch)
		if spec.LogAllWB {
			m.Ctrl.Log().AlwaysLog = true
		}
		return m, nil
	}

	start := now()
	root := tr.begin("bench.round", -1, 0, 0)
	figure := func(name string, off int, specs []harness.Spec) {
		fig := tr.begin(name, root, 0, 0)
		fanOut(context.Background(), len(specs), func(lane, i int) {
			op := off + i + 1
			spec := specs[i]
			c := tr.begin("harness.cell", fig, op, lane)
			m, err := prepare(spec, c, op, lane)
			if err != nil {
				tr.end(c)
				mu.Lock()
				r.fail("cell %s: %v", spec.Key(), err)
				mu.Unlock()
				return
			}
			id := tr.begin("machine.run", c, op, lane)
			end := m.Run(spec.Scale.InstrPerProc * uint64(spec.Procs))
			m.FinalizeStats()
			d := tr.end(id)
			st := stats.New(m.St.NProcs)
			m.St.CopyInto(st)
			tr.end(c)
			mu.Lock()
			out[off+i] = cell{st, uint64(end)}
			runNS += float64(d)
			runInstr += st.TotalInstructions()
			key := harness.ReuseKey(spec)
			pool[key] = append(pool[key], m)
			mu.Unlock()
		})
		tr.end(fig)
	}
	figure("harness.fig62", 0, f.fig62)
	figure("harness.fig65", len(f.fig62), f.fig65)
	tr.end(root)
	r.wall, r.cpu = start.since()

	h := sha256.New()
	var agg simAcc
	for _, c := range out {
		r.ops++
		if c.st == nil {
			continue
		}
		r.instr += c.st.TotalInstructions()
		addCell(&agg, h, c.st, c.cycles)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	agg.counters(r.sim)
	r.layer["machine.run_ns_per_instr"] = runNS / float64(max(runInstr, 1))
	return r, nil
}

// addCell folds one cell's statistics into the round's digest and
// counters.
func addCell(agg *simAcc, h io.Writer, st *stats.Stats, cycles uint64) {
	fmt.Fprintf(h, "%d|%s\n", cycles, st.Snapshot())
	agg.add(st, cycles)
}

// catch runs fn and turns a panic (the figure drivers panic on a failed
// cell) into an error.
func catch(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}
