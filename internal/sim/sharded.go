// Sharded execution: a conservative time-windowed (epoch) executor that
// advances several independent Engine heaps in parallel while producing
// an execution that is byte-identical to running the same heaps one at
// a time. This is the event-plane counterpart of the machine's sharded
// state plane (internal/mem.Sharding): state partitions parallelize
// snapshot/restore/fork, and the ShardedEngine parallelizes event
// execution for models whose shards only interact through messages with
// a known minimum latency.
//
// The contract is the classic conservative PDES lookahead argument
// (Chandy/Misra): if every cross-shard interaction is expressed as a
// Send with delay >= the lookahead window W, then during the epoch
// [T, T+W) no shard can receive anything from another shard that would
// fire inside the epoch — every message sent at t in [T, T+W) arrives
// at t+delay >= T+W. Each shard can therefore run its local heap
// through the whole epoch without synchronizing, in any order or in
// parallel, and the merged execution is independent of that order.
// Cross-shard messages buffered during the epoch are injected at the
// barrier in a single deterministic order: (deliverAt, source shard,
// per-source sequence). Determinism is a hard invariant, not a fast
// path: Run(Parallel=true) and Run(Parallel=false) produce identical
// event interleavings per shard and identical destination-heap
// sequence numbers, so any trace recorded by the model is identical.
//
// The machine model runs on this executor in event-plane mode
// (machine.Config.EventPlane): coherence transactions are decomposed
// into request/reply message legs whose modeled latencies are clamped
// up to the window, every leg and processor step carries a unique
// ordering key (SendKeyed / Engine.ScheduleKeyed), and each line's
// directory state is touched only on its home shard — which together
// satisfy the lookahead contract and make the trajectory independent
// of the shard count. The historical functional protocol (zero-latency
// synchronous directory walks) stays on the sequential Engine. The
// executor's own determinism is validated by the equivalence suite in
// sharded_test.go, which runs under -race at several GOMAXPROCS
// settings.
package sim

import (
	"runtime"
	"sort"
	"sync"
)

// xmsg is one cross-shard message buffered in a source shard's outbox
// until the epoch barrier.
type xmsg struct {
	at  Cycle  // absolute delivery cycle (>= epoch end + 1)
	key uint64 // shifted ordering key (merge key 2); 0 for plain Send
	src int    // sending shard (merge key 3)
	seq uint64 // per-source send sequence (merge key 4)
	dst int
	fn  func()
}

// ShardedEngine coordinates n independent Engines under a conservative
// epoch window. Events on shard i may freely touch shard-i model state
// and schedule more shard-i events via Shard(i); any effect on another
// shard must go through Send with delay >= Window().
type ShardedEngine struct {
	window Cycle
	shards []*Engine
	outbox [][]xmsg // per source shard; only shard i's events append to outbox[i]
	sent   []uint64 // per source shard send counter (deterministic merge key)
	merged []xmsg   // barrier scratch, reused across epochs

	// Parallel selects goroutine-per-shard epoch execution. The result
	// is byte-identical either way; false is the sequential reference
	// mode (shards advanced in index order) used by the equivalence
	// tests and by GOMAXPROCS=1 runs.
	Parallel bool

	now Cycle // completed-epoch frontier
}

// NewShardedEngine returns an executor over n fresh Engines with the
// given lookahead window. n must be >= 1 and window >= 1.
func NewShardedEngine(n int, window Cycle) *ShardedEngine {
	if n < 1 {
		panic("sim: ShardedEngine needs at least one shard")
	}
	if window < 1 {
		panic("sim: ShardedEngine window must be >= 1 cycle")
	}
	se := &ShardedEngine{
		window: window,
		shards: make([]*Engine, n),
		outbox: make([][]xmsg, n),
		sent:   make([]uint64, n),
	}
	for i := range se.shards {
		se.shards[i] = NewEngine()
	}
	return se
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Window returns the lookahead window: the minimum legal cross-shard
// Send delay.
func (se *ShardedEngine) Window() Cycle { return se.window }

// Shard returns shard i's Engine for local scheduling. Events scheduled
// on it must only touch shard-i model state.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Now returns the completed-epoch frontier: every event at or before
// this cycle, on every shard, has fired.
func (se *ShardedEngine) Now() Cycle { return se.now }

// Pending returns the total number of scheduled events across shards.
// Cross-shard messages in flight count once they are injected at the
// next barrier; during an epoch callers only see their own shard.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.Pending()
	}
	return n
}

// Send schedules fn on shard dst, delay cycles after the current cycle
// of shard src. It must be called from an event executing on shard src
// (it appends to src's private outbox — that, not the src clock, is why
// src must be accurate). delay must be >= Window(): the conservative
// epoch executor is only correct when no message can arrive inside the
// epoch it was sent in, so a shorter delay panics rather than silently
// breaking determinism.
func (se *ShardedEngine) Send(src, dst int, delay Cycle, fn func()) {
	if delay < se.window {
		panic("sim: cross-shard Send delay below the lookahead window")
	}
	se.sent[src]++
	se.outbox[src] = append(se.outbox[src], xmsg{
		at:  se.shards[src].Now() + delay,
		src: src,
		seq: se.sent[src],
		dst: dst,
		fn:  fn,
	})
}

// SendKeyed is Send for a message whose delivery order relative to
// other same-cycle keyed messages must be independent of which shard
// sent it: deliveries at the same cycle are merged in ascending key
// order ahead of (src, seq), and fire on the destination heap in that
// key order too (see Engine.ScheduleKeyed). Plain Send messages carry
// key 0 and therefore keep their historical (at, src, seq) order ahead
// of all keyed messages. The caller owns key uniqueness.
func (se *ShardedEngine) SendKeyed(src, dst int, delay Cycle, key uint64, fn func()) {
	if delay < se.window {
		panic("sim: cross-shard Send delay below the lookahead window")
	}
	se.sent[src]++
	se.outbox[src] = append(se.outbox[src], xmsg{
		at:  se.shards[src].Now() + delay,
		key: key + 1,
		src: src,
		seq: se.sent[src],
		dst: dst,
		fn:  fn,
	})
}

// earliest returns the minimum pending event time across shards.
// Outboxes are always empty here — every barrier drains them.
func (se *ShardedEngine) earliest() (Cycle, bool) {
	var best Cycle
	any := false
	for _, sh := range se.shards {
		if _, at, ok := sh.next(); ok && (!any || at < best) {
			best, any = at, true
		}
	}
	return best, any
}

// Run advances epochs until no events remain anywhere or the next
// event lies beyond limit (0 means no limit), and returns the frontier.
// Each epoch starts at the earliest pending event time T, runs every
// shard through [T, T+Window()-1] — in parallel when Parallel is set —
// then injects the buffered cross-shard messages in (deliverAt, src,
// seq) order.
func (se *ShardedEngine) Run(limit Cycle) Cycle {
	for se.RunEpoch(limit) {
	}
	return se.now
}

// RunEpoch advances exactly one epoch (or stops at limit) and reports
// whether it made progress. It is the building block of Run, exposed so
// that callers who need to poll model state at epoch granularity — the
// machine event plane checks instruction budgets and snapshot
// quiescence between epochs — can drive the same executor.
func (se *ShardedEngine) RunEpoch(limit Cycle) bool {
	start, any := se.earliest()
	if !any {
		return false
	}
	if limit != 0 && start > limit {
		se.now = limit
		return false
	}
	end := start + se.window - 1
	if limit != 0 && end > limit {
		end = limit
	}

	if se.Parallel && len(se.shards) > 1 {
		se.runEpochParallel(end)
	} else {
		for _, sh := range se.shards {
			sh.Run(end)
		}
	}
	se.barrier()
	se.now = end
	return true
}

// runEpochParallel runs every shard's heap through end with one worker
// goroutine per shard (capped at GOMAXPROCS via the scheduler; shards
// share nothing during an epoch, so this is race-free by construction).
func (se *ShardedEngine) runEpochParallel(end Cycle) {
	var wg sync.WaitGroup
	// Tiny heaps are common near quiescence; skip goroutine overhead
	// when only one shard has work this epoch.
	active := 0
	for _, sh := range se.shards {
		if _, at, ok := sh.next(); ok && at <= end {
			active++
		}
	}
	if active <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, sh := range se.shards {
			sh.Run(end)
		}
		return
	}
	for _, sh := range se.shards {
		wg.Add(1)
		go func(sh *Engine) {
			defer wg.Done()
			sh.Run(end)
		}(sh)
	}
	wg.Wait()
}

// barrier drains every outbox into the destination heaps in a single
// deterministic order. Sorting by (deliverAt, src, seq) fixes both the
// destination engines' sequence-number assignment and, therefore, the
// tie-break order of same-cycle deliveries — identical for sequential
// and parallel epochs.
func (se *ShardedEngine) barrier() {
	msgs := se.merged[:0]
	for i := range se.outbox {
		msgs = append(msgs, se.outbox[i]...)
		clear(se.outbox[i]) // release fn references
		se.outbox[i] = se.outbox[i][:0]
	}
	if len(msgs) > 1 {
		sort.Slice(msgs, func(a, b int) bool {
			if msgs[a].at != msgs[b].at {
				return msgs[a].at < msgs[b].at
			}
			if msgs[a].key != msgs[b].key {
				return msgs[a].key < msgs[b].key
			}
			if msgs[a].src != msgs[b].src {
				return msgs[a].src < msgs[b].src
			}
			return msgs[a].seq < msgs[b].seq
		})
	}
	for _, m := range msgs {
		if m.key == 0 {
			se.shards[m.dst].At(m.at, m.fn)
		} else {
			se.shards[m.dst].scheduleKeyedAbs(m.at, m.key, m.fn)
		}
	}
	clear(msgs)
	se.merged = msgs[:0]
}

// AdoptFrontier restores the completed-epoch frontier (machine
// snapshot restore; the per-shard engines are restored separately, and
// outboxes are empty at any restorable point).
func (se *ShardedEngine) AdoptFrontier(now Cycle) { se.now = now }

// Reset returns every shard to cycle 0 with empty heaps and outboxes.
func (se *ShardedEngine) Reset() {
	for _, sh := range se.shards {
		sh.Reset()
	}
	for i := range se.outbox {
		clear(se.outbox[i])
		se.outbox[i] = se.outbox[i][:0]
		se.sent[i] = 0
	}
	se.now = 0
}
