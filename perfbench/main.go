// Command perfbench is the repository's benchmark. It drives the
// reproduction from outside, through the public functions of its
// layers, on one of three workloads:
//
//	figures   regenerate Figures 6.2 and 6.5 at quick scale
//	campaign  fault campaigns on one cell through campaign.Engine and an on-disk store
//	service   two closed-loop HTTP clients against reboundd's service.Server
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload service --seed 3 --seconds 20 --trace 0
//
// A run repeats rounds of the workload until --seconds have passed.
// Every round replays the same inputs, generated from --seed, on fresh
// state (new runner, store and server), so the caches start empty in
// each round. With --trace 0 the run reports the end-to-end metrics;
// with --trace 1 it runs one untraced reference round and then traced
// rounds, and reports the per-layer metrics. The last line of standard
// output is one JSON object; the lines before it print every metric by
// name with its unit. The exit code is 1 when an output check fails.
// README.md in this directory records why each workload and metric
// exists.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the width of every worker pool (harness runner, campaign
// trials). On the 2-vCPU host the bounds were measured on, a figures
// round on 2 workers spread 0.33 (interquartile range over median,
// 14 rounds interleaved with 15 one-worker rounds that spread 0.12): the
// second vCPU's speed comes and goes, and a pool as wide as the host
// feels all of it. clients is the number of closed-loop service
// clients, two so that hits are served beside misses. Both are fixed so
// that a run on a wider host applies the same load.
const (
	workers = 1
	clients = 2
)

// setupReps is how many cold starts a run times before its rounds:
// fresh state, then the workload's first operation alone. setup_s is
// their median.
const setupReps = 7

// workload is one benchmark workload. setup builds fresh state for a
// round in dir (runner, store, server, generated inputs); first runs
// the workload's first operation alone on that state and checks it;
// run executes the round's operations, traced when tr is not nil;
// teardown releases everything setup built.
type workload interface {
	setup(dir string) error
	first() error
	run(tr *tracer) (*round, error)
	teardown()
}

// round is what one round measured and checked.
type round struct {
	wall time.Duration // the round's operations, set-up and checks excluded
	// cpu is the process's CPU time over the same interval as wall.
	cpu    time.Duration
	setup  time.Duration
	ops    int // cells, trials or requests attempted
	failed int // operations that failed or returned a wrong output
	instr  uint64
	// lat holds request latencies in ms: cells (figures), campaigns
	// (campaign) or HTTP requests (service).
	lat    []float64
	digest string // hash of the round's outputs, equal in every round of one seed
	// sim holds the exact simulated counters of the round's outputs.
	sim map[string]float64
	// layer holds per-layer values not derived from spans.
	layer map[string]float64
	// problems lists every failed output check.
	problems []string

	retainedMB float64
	allocMB    float64
	gcCPUFrac  float64
	gcCycles   float64
	tr         *tracer // nil for an untraced round
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// failN counts n failed operations under one problem.
func (r *round) failN(n int, format string, args ...any) {
	r.fail(format, args...)
	r.failed += n - 1
}

// stamp is a point in wall-clock time and in the process's CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// since returns the wall and CPU time that passed after s.
func (s stamp) since() (wall, cpu time.Duration) { return time.Since(s.wall), cpuTime() - s.cpu }

// cpuTime is the process's user plus system CPU time, over all its
// threads. Unlike wall time it leaves out the time the hypervisor gave
// this guest's vCPUs to other guests (steal time), on a kernel with
// paravirtual time accounting, as the hosts the bounds were measured
// on have.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func newRound() *round {
	return &round{sim: map[string]float64{}, layer: map[string]float64{}}
}

type metric struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run; every workload
// reports all of them. The times are CPU time at the reference speed
// (calib.go): on the shared hosts the bounds were measured on, steal
// time made wall times of one workload differ by 2x between runs
// minutes apart, and the host's speed by 1.4x. Unscaled CPU times and
// wall times are printed beside them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"sim_mips", "MIPS"},
	{"retained_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A workload that bypasses
// a layer reports 0 for its metrics.
var perLayer = []metric{
	{"harness.cell_ms_p50", "ms"},
	{"harness.cell_ms_tail", "ms"},
	{"harness.build_ms_p50", "ms"},
	{"machine.run_ns_per_instr", "ns"},
	{"machine.reset_ms_p50", "ms"},
	{"machine.resets", "count"},
	{"campaign.prewarm_warm_ms", "ms"},
	{"campaign.prewarm_load_ms", "ms"},
	{"machine.snapshot_ms", "ms"},
	{"machine.encode_ms", "ms"},
	{"machine.decode_ms", "ms"},
	{"machine.restore_ms", "ms"},
	{"machine.fork_ms", "ms"},
	{"machine.snapshot_mb", "MB"},
	{"store.snapshot_put_ms", "ms"},
	{"store.snapshot_get_ms", "ms"},
	{"campaign.warmups", "count"},
	{"campaign.loads", "count"},
	{"campaign.forks", "count"},
	{"campaign.fresh", "count"},
	{"campaign.trial_ms_p50", "ms"},
	{"campaign.trial_ms_tail", "ms"},
	{"campaign.assemble_ms", "ms"},
	{"campaign.cold_start_s", "s"},
	{"campaign.resume_s", "s"},
	{"store.put_trial_ms_p50", "ms"},
	{"store.get_trial_ms_p50", "ms"},
	{"store.dir_mb", "MB"},
	{"store.get_ms_p50", "ms"},
	{"store.getraw_ms_p50", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_tail_ms", "ms"},
	{"service.get_p50_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.store_hit_ratio", "ratio"},
	{"service.dedups", "count"},
	{"sim.cycles_total", "cycles"},
	{"cache.l1_miss_per_kinstr", "1/kinstr"},
	{"cache.l2_miss_per_kinstr", "1/kinstr"},
	{"coherence.coh_msgs_per_kinstr", "1/kinstr"},
	{"coherence.dep_msgs_per_kinstr", "1/kinstr"},
	{"mem.log_entries_per_kinstr", "1/kinstr"},
	{"mem.queue_cycles_per_kinstr", "cycles/kinstr"},
	{"sig.wsig_fp_ratio", "ratio"},
	{"core.checkpoints", "count"},
	{"core.ichk_procs_mean", "procs"},
	{"core.ckpt_stall_cycles_per_kinstr", "cycles/kinstr"},
	{"core.proto_msgs_per_kinstr", "1/kinstr"},
	{"fault.rollbacks_per_trial", "count"},
	{"core.irec_procs_mean", "procs"},
	{"fault.verify_ok_ratio", "ratio"},
	{"campaign.instr_per_trial", "instr"},
	{"harness.self_s", "s"},
	{"machine.self_s", "s"},
	{"campaign.self_s", "s"},
	{"store.self_s", "s"},
	{"service.self_s", "s"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
}

// composedNote says, per workload, where a traced round composes public
// calls instead of calling the product's own entry point.
var composedNote = map[string]string{
	"figures": "harness.cell is harness.Build, or Machine.Reset on a machine of the same harness.ReuseKey " +
		"from the benchmark's own unbounded pool, then Machine.Run and FinalizeStats, in place of " +
		"Runner.RunOne; no tables are assembled. machine.resets and machine.reset_ms_p50 describe that " +
		"pool, not Runner's byte-bounded one: a change to Runner's pool shows only in figures cpu_s",
	"campaign": "campaign.job is the calls Engine.Run makes (TrialNamespace, GetJSON, NewTrialRunnerStored, " +
		"Prewarm, TrialRunner.RunIn inside Runner.WithArena, PutJSON, Assemble) in place of Engine.Run; " +
		"the snapshot codec spans come from a probe after the round",
	"service": "none: requests go through service.Server over HTTP as in untraced rounds; store.get and " +
		"store.getraw are extra direct calls made beside each hit and get",
}

func main() {
	name := flag.String("workload", "", "workload: figures|campaign|service")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long the run measures")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for stores and trace files")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var w workload
	switch *name {
	case "figures":
		w = newFigures(*seed)
	case "campaign":
		w = newCampaign(*seed)
	case "service":
		w = newService(*seed)
	default:
		fatalf("unknown workload %q (figures|campaign|service)", *name)
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	ok := measure(w, *name, *seed, *seconds, *traced == 1, dir, *work)
	os.RemoveAll(dir)
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// oneRound sets up, runs, measures and tears down one round.
func oneRound(w workload, dir string, tr *tracer) *round {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	t0 := time.Now()
	if err := w.setup(dir); err != nil {
		fatalf("setup: %v", err)
	}
	setup := time.Since(t0)
	before := readRuntime()
	r, err := w.run(tr)
	if err != nil {
		fatalf("run: %v", err)
	}
	after := readRuntime()
	r.setup = setup
	r.tr = tr
	r.allocMB = (after.allocBytes - before.allocBytes) / (1 << 20)
	r.gcCycles = after.gcCycles - before.gcCycles
	if cpu := after.cpuSeconds - before.cpuSeconds; cpu > 0 {
		r.gcCPUFrac = (after.gcSeconds - before.gcSeconds) / cpu
	}
	// Live heap with the round's runner, store and server still
	// referenced by w, unless the workload measured it at a point where
	// more of its state is live.
	if r.retainedMB == 0 {
		r.retainedMB = liveHeapMB()
	}
	w.teardown()
	if err := os.RemoveAll(dir); err != nil {
		fatalf("%v", err)
	}
	return r
}

// liveHeapMB is the live heap in MB after two collections, the second
// letting finalizers settle.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

type runtimeSample struct {
	allocBytes, gcCycles, cpuSeconds, gcSeconds float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3)}
}

// measure runs the workload for about seconds and prints the result.
// It reports whether every output check passed.
func measure(w workload, name string, seed uint64, seconds int, traced bool, dir, work string) bool {
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	ref := newReference()
	refs := []float64{ref.time()}
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatalf("%v", err)
		}
		t0 := now()
		if err := w.setup(d); err != nil {
			fatalf("setup: %v", err)
		}
		if err := w.first(); err != nil {
			fatalf("first operation after set-up: %v", err)
		}
		wall, cpu := t0.since()
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
		w.teardown()
		os.RemoveAll(d)
	}

	var rounds []*round
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i > 0 {
			tr = newTracer()
		}
		refs = append(refs, ref.time())
		r := oneRound(w, filepath.Join(dir, fmt.Sprintf("round-%d", i)), tr)
		rounds = append(rounds, r)
		elapsed := time.Since(start)
		// Stop when another round would end past the budget by more
		// than half a round; a traced run needs a traced round.
		if elapsed+r.wall/2 >= budget && (!traced || i > 0) {
			break
		}
		if elapsed > 150*time.Second && (!traced || i > 0) {
			break
		}
	}
	return report(name, seed, traced, rounds, setups, setupWalls, refs, work)
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: workers, Clients: clients, CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report checks the rounds against each other, prints every metric and
// the final JSON line, and reports whether every check passed.
func report(name string, seed uint64, traced bool, rounds []*round, setups, setupWalls, refs []float64, work string) bool {
	h := hostInfo()
	fmt.Printf("perfbench %s seed=%d trace=%v rounds=%d host: %s, nproc %d, GOMAXPROCS %d, %s, %d workers, %d service clients\n",
		name, seed, traced, len(rounds), h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Workers, h.Clients)

	attempted, failed := 0, 0
	var problems []string
	ref := rounds[0]
	refSim := simDigest(ref.sim)
	for i, r := range rounds {
		attempted += r.ops
		failed += r.failed
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("round %d: %s", i, p))
		}
		fmt.Printf("round %d: wall %.3f s, cpu %.3f s, setup %.4f s, %d ops, %d failed, digest %s, sim %s\n",
			i, r.wall.Seconds(), r.cpu.Seconds(), r.setup.Seconds(), r.ops, r.failed, r.digest, simDigest(r.sim))
		// Same seed, same inputs: every round must reproduce the first
		// round's outputs and simulated counters exactly, traced or not.
		if r.digest != ref.digest || simDigest(r.sim) != refSim {
			failed++
			problems = append(problems, fmt.Sprintf("round %d: outputs differ from round 0", i))
		}
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	correct := failed == 0
	fmt.Printf("digest %s  attempted %d  failed %d  fail_ratio %.4f\n", ref.digest, attempted, failed,
		float64(failed)/float64(max(attempted, 1)))

	var vals map[string]float64
	var defs []metric
	if traced {
		vals, defs = layerValues(name, seed, rounds, work), perLayer
	} else {
		scale := refNominal / median(refs)
		vals, defs = endToEndValues(rounds, setups, scale), endToEnd
		fmt.Printf("reference computation %.4f s (median of %d), scale %.4f; unscaled: setup %.4f s, round %.3f s of CPU\n",
			median(refs), len(refs), scale, vals["setup_s"]/scale, vals["cpu_s"]/scale)
		printWall(rounds, setupWalls)
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		out[d.name] = value{v, d.unit}
		fmt.Printf("  %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		fatalf("%v", err)
	}
	hostJSON, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hostJSON)
	fmt.Println(string(line))
	return correct
}

func simDigest(sim map[string]float64) string {
	keys := make([]string, 0, len(sim))
	for k := range sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hsh := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(hsh, "%s=%v\n", k, sim[k])
	}
	return hex.EncodeToString(hsh.Sum(nil))[:16]
}

// endToEndValues computes the untraced metrics: medians over rounds,
// so one slow round does not move them, with CPU times multiplied by
// scale.
func endToEndValues(rounds []*round, setups []float64, scale float64) map[string]float64 {
	var cpus, opsPerCPU, mips, retained []float64
	for _, r := range rounds {
		c := r.cpu.Seconds() * scale
		cpus = append(cpus, c)
		opsPerCPU = append(opsPerCPU, float64(r.ops)/c)
		mips = append(mips, float64(r.instr)/c/1e6)
		retained = append(retained, r.retainedMB)
	}
	return map[string]float64{
		"setup_s":       median(setups) * scale,
		"cpu_s":         median(cpus),
		"ops_per_cpu_s": median(opsPerCPU),
		"sim_mips":      median(mips),
		"retained_mb":   median(retained),
	}
}

// printWall prints the wall-time counterparts of the end-to-end
// metrics, medians over rounds: what a user waits for, but not steady
// enough on a shared host to bound a change by.
func printWall(rounds []*round, setupWalls []float64) {
	var walls, opsPerS, lat []float64
	for _, r := range rounds {
		w := r.wall.Seconds()
		walls = append(walls, w)
		opsPerS = append(opsPerS, float64(r.ops)/w)
		lat = append(lat, r.lat...)
	}
	fmt.Printf("wall time (printed, not a metric): setup %.4f s, round %.3f s, %.4g ops/s, request p50 %.4g ms over %d requests\n",
		median(setupWalls), median(walls), median(opsPerS), median(lat), len(lat))
}

// layerValues computes the per-layer metrics of a traced run. Round 0
// is the untraced reference: product-path numbers (campaign cold start
// and resume, service latencies, runtime counters, simulated counters)
// come from it, span-derived numbers from the traced rounds.
func layerValues(name string, seed uint64, rounds []*round, work string) map[string]float64 {
	ref := rounds[0]
	traced := rounds[1:]
	// Span samples pool over every traced round.
	tr := &tracer{}
	for _, r := range traced {
		tr.spans = append(tr.spans, r.tr.spans...)
	}
	vals := map[string]float64{}
	for k, v := range ref.sim {
		vals[k] = v
	}
	for k, v := range ref.layer {
		vals[k] = v
	}
	vals["runtime.alloc_mb_per_op"] = ref.allocMB / float64(max(ref.ops, 1))
	vals["runtime.gc_cpu_frac"] = ref.gcCPUFrac
	vals["runtime.gc_cycles"] = ref.gcCycles
	// Values the traced rounds measured outside spans (counts, sizes).
	for k, v := range traced[len(traced)-1].layer {
		if _, ok := vals[k]; !ok {
			vals[k] = v
		}
	}

	p50 := func(span string) float64 { return median(tr.durations(span)) }
	tailOf := func(span string) float64 { v, _ := tail(tr.durations(span)); return v }
	vals["harness.cell_ms_p50"] = p50("harness.cell")
	vals["harness.cell_ms_tail"] = tailOf("harness.cell")
	vals["harness.build_ms_p50"] = p50("harness.build")
	vals["machine.reset_ms_p50"] = p50("machine.reset")
	vals["machine.resets"] = float64(len(tr.durations("machine.reset"))) / float64(len(traced))
	vals["campaign.prewarm_warm_ms"] = p50("campaign.prewarm_warm")
	vals["campaign.prewarm_load_ms"] = p50("campaign.prewarm_load")
	for _, s := range []string{"machine.snapshot", "machine.encode", "machine.decode", "machine.restore",
		"machine.fork", "store.snapshot_put", "store.snapshot_get", "campaign.assemble"} {
		vals[s+"_ms"] = p50(s)
	}
	vals["campaign.trial_ms_p50"] = p50("campaign.trial")
	vals["campaign.trial_ms_tail"] = tailOf("campaign.trial")
	vals["store.put_trial_ms_p50"] = p50("store.put_trial")
	vals["store.get_trial_ms_p50"] = p50("store.get_trial")
	vals["store.get_ms_p50"] = p50("store.get")
	vals["store.getraw_ms_p50"] = p50("store.getraw")

	// Self times of the last traced round, beside the reference wall.
	last := traced[len(traced)-1]
	var tracedWalls []float64
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	self := last.tr.selfTimes()
	for _, l := range []string{"harness", "machine", "campaign", "store", "service"} {
		vals[l+".self_s"] = self[l]
	}
	lastWall := last.wall.Seconds()
	vals["trace.unaccounted_frac"] = self["bench"] / lastWall
	vals["trace.overhead_frac"] = median(tracedWalls)/ref.wall.Seconds() - 1
	explain(os.Stdout, ref.wall.Seconds(), lastWall, self)
	fmt.Printf("spans composed from public calls: %s\n", composedNote[name])
	fmt.Println("not measured: machine.warm_ms (the warm-up runs inside TrialRunner.Prewarm and is not " +
		"exported; campaign.prewarm_warm_ms includes it); a per-trial restore_ms_p50 (delta restores run " +
		"inside TrialRunner.RunIn; machine.restore_ms is one full restore in the probe)")

	path := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := last.tr.writeChrome(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	} else {
		fmt.Printf("trace: %s (%d spans of the last traced round, Chrome trace-event JSON)\n", path, len(last.tr.spans))
	}
	return vals
}
