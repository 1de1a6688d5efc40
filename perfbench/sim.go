package main

import "repro/internal/stats"

// simAcc sums the simulated counters of many runs. The counters are
// exact and deterministic: a change that only speeds up the simulator
// must leave every one of them bit-identical.
type simAcc struct {
	instr, cycles                     uint64
	l1Miss, l2Miss, coh, dep, logEnt  uint64
	memQueue, wsigTests, wsigFP, ckpt uint64
	ichkProcs, stall, proto           uint64
}

func (a *simAcc) add(st *stats.Stats, cycles uint64) {
	a.instr += st.TotalInstructions()
	a.cycles += cycles
	a.l1Miss += st.L1Misses
	a.l2Miss += st.L2Misses
	a.coh += st.CohMessages
	a.dep += st.DepMessages
	a.logEnt += st.LogEntries
	a.memQueue += st.MemQueueCycles
	a.wsigTests += st.WSIGTests
	a.wsigFP += st.WSIGFalsePositives
	a.ckpt += uint64(len(st.Checkpoints))
	for _, c := range st.Checkpoints {
		a.ichkProcs += uint64(c.Size)
	}
	wb, imb, sync := st.StallTotals()
	a.stall += wb + imb + sync
	a.proto += st.ProtoMessages
}

// counters writes the per-layer simulated counters into m.
func (a *simAcc) counters(m map[string]float64) {
	kinstr := float64(max(a.instr, 1)) / 1000
	per := func(v uint64) float64 { return float64(v) / kinstr }
	m["sim.cycles_total"] = float64(a.cycles)
	m["cache.l1_miss_per_kinstr"] = per(a.l1Miss)
	m["cache.l2_miss_per_kinstr"] = per(a.l2Miss)
	m["coherence.coh_msgs_per_kinstr"] = per(a.coh)
	m["coherence.dep_msgs_per_kinstr"] = per(a.dep)
	m["mem.log_entries_per_kinstr"] = per(a.logEnt)
	m["mem.queue_cycles_per_kinstr"] = per(a.memQueue)
	if a.wsigTests > 0 {
		m["sig.wsig_fp_ratio"] = float64(a.wsigFP) / float64(a.wsigTests)
	}
	m["core.checkpoints"] = float64(a.ckpt)
	if a.ckpt > 0 {
		m["core.ichk_procs_mean"] = float64(a.ichkProcs) / float64(a.ckpt)
	}
	m["core.ckpt_stall_cycles_per_kinstr"] = per(a.stall)
	m["core.proto_msgs_per_kinstr"] = per(a.proto)
}
