package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/store"
)

// campaignWL runs fault campaigns on one base cell the way reboundd
// does: a fresh campaign.Engine per job on a shared runner and on-disk
// store. Several campaigns differ in seed or fault count; one more is
// cancelled halfway from OnProgress and resumed by a fresh engine on a
// reopened store and a new runner. Nearly all the time goes to the
// snapshot plane (Snapshot/Restore/Fork and the persistent codec), the
// store, and fault recovery; the harness memo, machine pool and long
// fault-free runs are bypassed. The engine is driven directly rather
// than over HTTP, so poll intervals do not quantise the times.
type campaignWL struct {
	specs  []campaign.Spec // run to completion
	resume campaign.Spec   // cancelled halfway, then resumed

	dir    string
	st     *store.Store
	runner *harness.Runner
}

func newCampaign(seed uint64) *campaignWL {
	sc := harness.Quick
	sc.Seed = seed
	base := harness.Spec{App: "FFT", Procs: 16, Scheme: "Rebound", Scale: sc}
	rng := rand.New(rand.NewPCG(seed, 0xca3b))
	spec := func(faults, trials int) campaign.Spec {
		return campaign.Spec{Base: base, Trials: trials, Faults: faults, Window: 60_000, Seed: rng.Uint64()}
	}
	c := &campaignWL{}
	for _, faults := range []int{2, 2, 1, 3} {
		c.specs = append(c.specs, spec(faults, 64))
	}
	c.resume = spec(2, 80)
	return c
}

// jobs lists every campaign of a round, the resumed one last.
func (c *campaignWL) jobs() []campaign.Spec {
	return append(append([]campaign.Spec(nil), c.specs...), c.resume)
}

func (c *campaignWL) setup(dir string) error {
	for _, s := range c.jobs() {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		return err
	}
	c.dir, c.st, c.runner = dir, st, harness.NewRunner(workers)
	return nil
}

func (c *campaignWL) teardown() { c.st, c.runner = nil, nil }

// first starts the first campaign on a fresh engine and cancels it at
// its first completed trial; Run returns once the trials in flight end.
func (c *campaignWL) first() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := campaign.New(c.runner, c.st)
	e.OnProgress = func(int, int) { cancel() }
	if _, err := e.Run(ctx, c.specs[0]); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("campaign cancelled at its first trial returned %v, want context.Canceled", err)
	}
	return nil
}

func (c *campaignWL) run(tr *tracer) (*round, error) {
	if tr != nil {
		return c.runTraced(tr)
	}
	r := newRound()
	var reports []*campaign.Report
	var coldStarts []float64
	var pauseWall, pauseCPU time.Duration
	start := now()
	// engine runs one job on a fresh engine, recording the time from the
	// Run call to the first trial it completes. A resuming engine first
	// reports the trials it restored; that call is skipped.
	engine := func(ctx context.Context, runner *harness.Runner, st *store.Store, spec campaign.Spec,
		resuming bool, cancel func()) (*campaign.Report, time.Duration, error) {
		e := campaign.New(runner, st)
		t0 := time.Now()
		var calls atomic.Int64
		var once sync.Once
		var cold time.Duration
		e.OnProgress = func(done, total int) {
			if calls.Add(1) == 1 && resuming {
				return
			}
			once.Do(func() { cold = time.Since(t0) })
			if cancel != nil && done >= total/2 {
				cancel()
			}
			if resuming && done == total {
				// The round's live heap, read while the resumed job's
				// trial runner and warm snapshot are still referenced;
				// the collections are left out of the round's times.
				t := now()
				r.retainedMB = liveHeapMB()
				pauseWall, pauseCPU = t.since()
			}
		}
		rep, err := e.Run(ctx, spec)
		// Orders OnProgress's write of cold before the read below.
		once.Do(func() {})
		coldStarts = append(coldStarts, cold.Seconds())
		return rep, time.Since(t0), err
	}
	for _, spec := range c.specs {
		rep, d, err := engine(context.Background(), c.runner, c.st, spec, false, nil)
		r.lat = append(r.lat, float64(d)/1e6)
		if err != nil {
			r.failN(spec.Trials, "campaign %s: %v", campaign.KeyOf(spec), err)
		}
		reports = append(reports, rep)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := engine(ctx, c.runner, c.st, c.resume, false, cancel)
	cancel()
	if !errors.Is(err, context.Canceled) {
		r.fail("cancelled campaign returned %v, want context.Canceled", err)
	}
	st, err := store.Open(c.st.Dir(), 0)
	if err != nil {
		return nil, err
	}
	c.st, c.runner = st, harness.NewRunner(workers)
	rep, d, err := engine(context.Background(), c.runner, c.st, c.resume, true, nil)
	r.lat = append(r.lat, float64(d)/1e6)
	if err != nil {
		r.failN(c.resume.Trials, "resumed campaign: %v", err)
	}
	reports = append(reports, rep)
	r.wall, r.cpu = start.since()
	r.wall -= pauseWall
	r.cpu -= pauseCPU

	r.layer["campaign.cold_start_s"] = median(coldStarts)
	r.layer["campaign.resume_s"] = (d - pauseWall).Seconds()
	c.check(r, reports)
	return r, nil
}

// check verifies the round's reports and folds them into its digest
// and counters: every trial passed the poison verifier and every report
// covers all its trials.
func (c *campaignWL) check(r *round, reports []*campaign.Report) {
	h := sha256.New()
	var trials, verified, rollbacks, irecN int
	var irecSum, instr, cycles uint64
	for k, spec := range c.jobs() {
		r.ops += spec.Trials
		rep := reports[k]
		if rep == nil {
			continue // already counted as failed
		}
		if rep.Key != campaign.KeyOf(spec) || rep.Trials != spec.Trials || rep.VerifiedOK != rep.Trials {
			r.fail("report %s: %d of %d trials verified", rep.Key, rep.VerifiedOK, spec.Trials)
		}
		for _, t := range rep.TrialRecords {
			if !t.VerifyOK {
				r.fail("trial %d of %s: %s", t.Index, rep.Key, t.VerifyError)
			}
			instr += t.Instructions
			cycles += t.EndCycle
			for _, s := range t.IRECSizes {
				irecSum += uint64(s)
				irecN++
			}
		}
		trials += rep.Trials
		verified += rep.VerifiedOK
		rollbacks += rep.Rollbacks
		data, err := json.Marshal(rep)
		if err != nil {
			r.fail("report %s: %v", rep.Key, err)
		}
		h.Write(data)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	// Instructions the trial records cover, the warm-up prefix each
	// trial restores included.
	r.instr = instr
	n := float64(max(trials, 1))
	r.sim["sim.cycles_total"] = float64(cycles)
	r.sim["fault.rollbacks_per_trial"] = float64(rollbacks) / n
	r.sim["fault.verify_ok_ratio"] = float64(verified) / n
	r.sim["campaign.instr_per_trial"] = float64(instr) / n
	if irecN > 0 {
		r.sim["core.irec_procs_mean"] = float64(irecSum) / float64(irecN)
	}
	r.layer["store.dir_mb"] = dirMB(c.st.Dir())
}

// runTraced makes the same jobs by composing the public calls
// campaign.Engine.Run makes — TrialNamespace, GetJSON per stored trial,
// NewTrialRunnerStored and Prewarm, TrialRunner.RunIn inside
// Runner.WithArena and PutJSON per trial, Assemble and PutJSON of the report — so each gets a span. Its
// reports must be byte-identical to the engine's. A probe after the
// round then times the snapshot codec on the snapshot the round stored.
func (c *campaignWL) runTraced(tr *tracer) (*round, error) {
	r := newRound()
	var reports []*campaign.Report
	start := now()
	root := tr.begin("bench.round", -1, 0, 0)
	for k, spec := range c.specs {
		rep, err := c.composed(tr, r, root, k+1, context.Background(), c.runner, c.st, spec, nil)
		if err != nil {
			r.failN(spec.Trials, "campaign %s: %v", campaign.KeyOf(spec), err)
		}
		reports = append(reports, rep)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rep, err := c.composed(tr, r, root, len(c.specs)+1, ctx, c.runner, c.st, c.resume, cancel)
	cancel()
	if rep != nil || err != nil {
		r.fail("cancelled campaign returned a report or %v", err)
	}
	id := tr.begin("store.open", root, 0, 0)
	st, err := store.Open(c.st.Dir(), 0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c.st, c.runner = st, harness.NewRunner(workers)
	rep, err = c.composed(tr, r, root, len(c.specs)+2, context.Background(), c.runner, c.st, c.resume, nil)
	if err != nil {
		r.failN(c.resume.Trials, "resumed campaign: %v", err)
	}
	reports = append(reports, rep)
	tr.end(root)
	r.wall, r.cpu = start.since()
	c.check(r, reports)
	c.probe(tr, r)
	return r, nil
}

// composed runs one campaign job from public calls. With cancel set it
// cancels ctx once half the trials are done and returns a nil report.
func (c *campaignWL) composed(tr *tracer, r *round, parent, op int, ctx context.Context,
	runner *harness.Runner, st *store.Store, spec campaign.Spec, cancel func()) (*campaign.Report, error) {
	job := tr.begin("campaign.job", parent, op, 0)
	defer tr.end(job)
	key := campaign.KeyOf(spec)
	ns, err := campaign.TrialNamespace(st, key)
	if err != nil {
		return nil, err
	}
	id := tr.begin("campaign.load_report", job, op, 0)
	_, done, err := campaign.New(runner, st).LoadReport(key)
	tr.end(id)
	if err != nil || done {
		return nil, fmt.Errorf("fresh campaign %s already has a report (%v)", key, err)
	}
	trials := make([]*campaign.Trial, spec.Trials)
	var missing []int
	for i := range trials {
		id := tr.begin("store.get_trial", job, op, 0)
		var t campaign.Trial
		ok, err := ns.GetJSON(campaign.TrialRecordName(i), &t)
		if err == nil && ok && campaign.ValidTrial(spec, i, &t) {
			tr.end(id)
			trials[i] = &t
		} else {
			tr.endAs(id, "store.get_trial_miss")
			missing = append(missing, i)
		}
	}
	trunner := campaign.NewTrialRunnerStored(spec, st)
	if len(missing) > 1 {
		id := tr.begin("campaign.prewarm", job, op, 0)
		err := trunner.Prewarm(min(workers, len(missing)))
		name := "campaign.prewarm_load"
		if w, _, _, _ := trunner.Counters(); w > 0 {
			name = "campaign.prewarm_warm"
		}
		tr.endAs(id, name)
		if err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	var errs []error
	var completed atomic.Int64
	fanOut(ctx, len(missing), func(lane, j int) {
		i := missing[j]
		var t campaign.Trial
		var err error
		id := tr.begin("campaign.trial", job, op, lane)
		// As Engine.Run does: RunIn with a pooled arena of the runner.
		if p := catch(func() { runner.WithArena(func(a *cache.Arena) { t, err = trunner.RunIn(i, a) }) }); p != nil {
			err = p
		}
		tr.end(id)
		if err == nil {
			id = tr.begin("store.put_trial", job, op, lane)
			err = ns.PutJSON(campaign.TrialRecordName(i), &t)
			tr.end(id)
		}
		mu.Lock()
		if err != nil {
			errs = append(errs, err)
		} else {
			trials[i] = &t
		}
		mu.Unlock()
		if n := completed.Add(1); cancel != nil && int(n) >= spec.Trials/2 {
			cancel()
		}
	})
	w, l, f, fr := trunner.Counters()
	r.layer["campaign.warmups"] += float64(w)
	r.layer["campaign.loads"] += float64(l)
	r.layer["campaign.forks"] += float64(f)
	r.layer["campaign.fresh"] += float64(fr)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	ordered := make([]campaign.Trial, spec.Trials)
	for i, t := range trials {
		if t == nil {
			return nil, nil // cancelled
		}
		ordered[i] = *t
	}
	id = tr.begin("campaign.assemble", job, op, 0)
	rep, err := campaign.Assemble(spec, ordered)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("store.put_report", job, op, 0)
	err = ns.PutJSON(campaign.ReportRecordName, rep)
	tr.end(id)
	return rep, err
}

// probe times the snapshot plane on the warm snapshot the round
// persisted: store read, decode into a fresh build, full restore,
// snapshot, encode (which must reproduce the stored bytes), store
// write into a scratch store, and a fork. Its spans sit under their own
// root, outside the round's wall time.
func (c *campaignWL) probe(tr *tracer, r *round) {
	root := tr.begin("bench.probe", -1, 0, 0)
	defer tr.end(root)
	ns, err := c.st.SnapshotNamespace()
	if err != nil {
		r.fail("snapshot namespace: %v", err)
		return
	}
	names, err := ns.Names()
	if err != nil || len(names) != 1 {
		r.fail("want one stored warm snapshot, found %d (%v)", len(names), err)
		return
	}
	var rec store.SnapshotRecord
	if _, err := ns.GetJSON(names[0], &rec); err != nil {
		r.fail("snapshot record: %v", err)
		return
	}
	var payload, encoded []byte
	var m *machine.Machine
	var snap *machine.MachineSnapshot
	again := new(machine.MachineSnapshot)
	base := c.resume.Base
	var probeStore *store.Store
	steps := []struct {
		name string
		fn   func() error
	}{
		{"store.snapshot_get", func() (err error) {
			var ok bool
			if payload, ok, err = c.st.GetSnapshot(rec.SnapKey); err == nil && !ok {
				err = errors.New("snapshot vanished")
			}
			return err
		}},
		{"harness.build", func() (err error) { m, err = harness.Build(base); return err }},
		{"machine.decode", func() (err error) { snap, err = m.DecodeSnapshot(payload); return err }},
		{"machine.restore", func() error { return m.Restore(snap) }},
		{"machine.snapshot", func() error { return m.Snapshot(again) }},
		{"machine.encode", func() (err error) { encoded, err = m.EncodeSnapshot(again); return err }},
		{"store.open", func() (err error) { probeStore, err = store.Open(filepath.Join(c.dir, "probe"), 0); return err }},
		{"store.snapshot_put", func() error { return probeStore.PutSnapshot(rec.SnapKey, encoded) }},
		{"machine.fork", func() error {
			sch, err := harness.SchemeFor(base.Scheme)
			if err == nil {
				_, err = m.Fork(snap, sch)
			}
			return err
		}},
	}
	for _, st := range steps {
		id := tr.begin(st.name, root, 0, 0)
		err := st.fn()
		tr.end(id)
		if err != nil {
			r.fail("%s: %v", st.name, err)
			return
		}
	}
	if !bytes.Equal(encoded, payload) {
		r.fail("snapshot re-encoded after restore differs from the stored bytes (%d vs %d)", len(encoded), len(payload))
	}
	r.layer["machine.snapshot_mb"] = float64(len(payload)) / (1 << 20)
}

// dirMB is the size of the files under dir in MB.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
