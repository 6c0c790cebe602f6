package main

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cellTrace collects one traced cell's per-layer measurements from
// wrappers placed around the workload's programs and the manager. Both
// are built inside sim.NewRunner, from one goroutine; each program and
// each manager is then driven by a single engine lane, and the totals are
// read after Run returns.
type cellTrace struct {
	progs []*tracedProgram
	mgrs  []*tracedManager
}

// tracedProgram times Next and counts what it generates.
type tracedProgram struct {
	inner         workload.Program
	next          time.Duration
	txs, accesses int64
}

// Next implements workload.Program.
func (p *tracedProgram) Next() (int64, *workload.TxDesc, bool) {
	t := time.Now()
	pre, tx, ok := p.inner.Next()
	p.next += time.Since(t)
	if ok {
		p.txs++
		p.accesses += int64(len(tx.Accesses))
	}
	return pre, tx, ok
}

// tracedWorkload wraps every program it builds.
type tracedWorkload struct {
	workload.Workload
	trace *cellTrace
}

// NewProgram implements workload.Workload.
func (w *tracedWorkload) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	p := &tracedProgram{inner: w.Workload.NewProgram(tid, nThreads, seed)}
	w.trace.progs = append(w.trace.progs, p)
	return p
}

// wrapWorkload wraps w, keeping its workload.Sharder so that the
// simulator still takes the partitioned path.
func (ct *cellTrace) wrapWorkload(w workload.Workload) workload.Workload {
	tw := &tracedWorkload{Workload: w, trace: ct}
	if s, ok := w.(workload.Sharder); ok {
		return struct {
			*tracedWorkload
			workload.Sharder
		}{tw, s}
	}
	return tw
}

// generated is the number of transactions the cell's programs produced.
func (ct *cellTrace) generated() int64 {
	var n int64
	for _, p := range ct.progs {
		n += p.txs
	}
	return n
}

// tracedManager times every callback into the manager and sums the
// overhead cycles it charges.
type tracedManager struct {
	inner                                  sched.Manager
	begin, commit, abort, cpuSlot, txEnded time.Duration
	begins, serialized, overhead           int64
}

// Name implements sched.Manager.
func (m *tracedManager) Name() string { return m.inner.Name() }

// OnBegin implements sched.Manager.
func (m *tracedManager) OnBegin(tid, stx int) sched.BeginResult {
	t := time.Now()
	res := m.inner.OnBegin(tid, stx)
	m.begin += time.Since(t)
	m.begins++
	if res.Action != sched.Proceed {
		m.serialized++
	}
	m.overhead += res.Overhead
	return res
}

// OnCPUSlot implements sched.Manager.
func (m *tracedManager) OnCPUSlot(cpu, dtx int) {
	t := time.Now()
	m.inner.OnCPUSlot(cpu, dtx)
	m.cpuSlot += time.Since(t)
}

// OnAbort implements sched.Manager.
func (m *tracedManager) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) sched.AbortResult {
	t := time.Now()
	res := m.inner.OnAbort(tid, stx, enemyTid, enemyStx, attempts)
	m.abort += time.Since(t)
	m.overhead += res.Overhead
	return res
}

// OnCommit implements sched.Manager.
func (m *tracedManager) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	t := time.Now()
	cost := m.inner.OnCommit(tid, stx, lines, writes, size)
	m.commit += time.Since(t)
	m.overhead += cost
	return cost
}

// OnTxEnded implements sched.Manager.
func (m *tracedManager) OnTxEnded(tid, stx int, committed bool) {
	t := time.Now()
	m.inner.OnTxEnded(tid, stx, committed)
	m.txEnded += time.Since(t)
}

// The optional Manager extensions the simulator looks for. The wrapper
// must have exactly the inner manager's set: a missing ShardSafe would
// move a run off the partitioned path, and a missing StallPolicy or
// reporter would change what the run does or records.
const (
	extShardSafe = 1 << iota
	extStallPolicy
	extConfidence
	extPressure
)

func extensions(m sched.Manager) int {
	ext := 0
	if _, ok := m.(sched.ShardSafe); ok {
		ext |= extShardSafe
	}
	if _, ok := m.(sched.StallPolicy); ok {
		ext |= extStallPolicy
	}
	if _, ok := m.(sched.ConfidenceReporter); ok {
		ext |= extConfidence
	}
	if _, ok := m.(sched.PressureReporter); ok {
		ext |= extPressure
	}
	return ext
}

// shardSafeManager carries the sched.ShardSafe marker. Embedding the
// interface instead would not: its field, also named ShardSafe, hides
// the promoted method.
type shardSafeManager struct{ *tracedManager }

// ShardSafe implements sched.ShardSafe.
func (shardSafeManager) ShardSafe() {}

// wrapManager returns a constructor that wraps every manager newManager
// builds. It covers the extension sets the repository's managers have;
// any other set panics, which runCell reports as a failed cell.
func (ct *cellTrace) wrapManager(newManager func(sched.Env) sched.Manager) func(sched.Env) sched.Manager {
	return func(env sched.Env) sched.Manager {
		inner := newManager(env)
		t := &tracedManager{inner: inner}
		ct.mgrs = append(ct.mgrs, t)
		var m sched.Manager
		switch ext := extensions(inner); ext {
		case 0:
			m = t
		case extShardSafe:
			m = shardSafeManager{t}
		case extStallPolicy:
			m = struct {
				*tracedManager
				sched.StallPolicy
			}{t, inner.(sched.StallPolicy)}
		case extPressure:
			m = struct {
				*tracedManager
				sched.PressureReporter
			}{t, inner.(sched.PressureReporter)}
		case extConfidence | extPressure:
			m = struct {
				*tracedManager
				sched.ConfidenceReporter
				sched.PressureReporter
			}{t, inner.(sched.ConfidenceReporter), inner.(sched.PressureReporter)}
		default:
			panic(fmt.Sprintf("no traced wrapper keeps the extensions %04b of manager %s", ext, inner.Name()))
		}
		return m
	}
}

// layerTotals sums the per-layer measurements of one traced repetition.
type layerTotals struct {
	cells                                  int64
	next                                   time.Duration
	txs, accesses                          int64
	begin, commit, abort, cpuSlot, txEnded time.Duration
	begins, serialized, overheadCycles     int64
	newRunner, run                         time.Duration
	commits, aborts                        int64
	makespan                               int64 // multi-core cells only
	breakdown                              sim.Breakdown
	counters                               map[string]int64
	probeNodes, probeCands                 histTotal
}

// histTotal pools the samples of registry histograms.
type histTotal struct {
	n   int64
	sum float64
}

func (h *histTotal) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// registryCounters are the registry counters the per-layer metrics use.
var registryCounters = []string{
	"hwaccel.conf_cache.hits", "hwaccel.conf_cache.misses",
	"sim.pred.true", "sim.pred.false",
	"sim.shard.msgs.sent", "sim.shard.send_stall_spins",
}

// add folds one traced cell into the totals.
func (lt *layerTotals) add(c cell, o cellRun) {
	lt.cells++
	for _, p := range o.trace.progs {
		lt.next += p.next
		lt.txs += p.txs
		lt.accesses += p.accesses
	}
	for _, m := range o.trace.mgrs {
		lt.begin += m.begin
		lt.commit += m.commit
		lt.abort += m.abort
		lt.cpuSlot += m.cpuSlot
		lt.txEnded += m.txEnded
		lt.begins += m.begins
		lt.serialized += m.serialized
		lt.overheadCycles += m.overhead
	}
	lt.newRunner += o.newRunner
	lt.run += o.run
	lt.commits += o.res.Commits
	lt.aborts += o.res.Aborts
	if c.cores*c.tpc > 1 {
		lt.makespan += o.res.Makespan
	}
	lt.breakdown.Merge(&o.res.Breakdown)
	snap := o.res.Metrics
	if lt.counters == nil {
		lt.counters = map[string]int64{}
	}
	for _, name := range registryCounters {
		lt.counters[name] += snap.Counters[name]
	}
	for _, mgr := range []string{"bfgts", "pts"} {
		h := snap.Histograms["sched."+mgr+".probe.nodes"]
		lt.probeNodes.n += h.N
		lt.probeNodes.sum += h.Mean * float64(h.N)
		h = snap.Histograms["sched."+mgr+".probe.candidates"]
		lt.probeCands.n += h.N
		lt.probeCands.sum += h.Mean * float64(h.N)
	}
}

// pct is 100*num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// report adds this repetition's per-layer metrics to m.
func (lt *layerTotals) report(m medians) {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	schedTime := lt.begin + lt.commit + lt.abort + lt.cpuSlot + lt.txEnded
	m.add("harness.cells", float64(lt.cells))
	m.add("workload.next_s", sec(lt.next))
	m.add("workload.txs", float64(lt.txs))
	m.add("workload.accesses", float64(lt.accesses))
	m.add("sched.on_begin_s", sec(lt.begin))
	m.add("sched.on_commit_s", sec(lt.commit))
	m.add("sched.on_abort_s", sec(lt.abort))
	m.add("sched.on_cpu_slot_s", sec(lt.cpuSlot))
	m.add("sched.on_tx_ended_s", sec(lt.txEnded))
	m.add("sched.begin_calls", float64(lt.begins))
	m.add("sched.serialize_pct", pct(float64(lt.serialized), float64(lt.begins)))
	m.add("sched.overhead_mcycles", float64(lt.overheadCycles)/1e6)
	hits, misses := lt.counters["hwaccel.conf_cache.hits"], lt.counters["hwaccel.conf_cache.misses"]
	m.add("hwaccel.conf_cache.hit_pct", pct(float64(hits), float64(hits+misses)))
	m.add("sched.probe.nodes_mean", lt.probeNodes.mean())
	m.add("sched.probe.candidates_mean", lt.probeCands.mean())
	m.add("sim.new_runner_s", sec(lt.newRunner))
	m.add("sim.run_s", sec(lt.run))
	m.add("sim.self_s", sec(lt.run-lt.next-schedTime))
	m.add("sim.host_ns_per_commit", float64(lt.run.Nanoseconds())/float64(max(lt.commits, 1)))
	m.add("sim.makespan_mcycles", float64(lt.makespan)/1e6)
	m.add("tm.abort_pct", pct(float64(lt.aborts), float64(lt.commits+lt.aborts)))
	total := float64(lt.breakdown.Total())
	for cat, name := range map[sim.Category]string{
		sim.CatNonTx: "nontx", sim.CatKernel: "kernel", sim.CatTx: "tx",
		sim.CatAbort: "abort", sim.CatScheduling: "scheduling", sim.CatIdle: "idle",
	} {
		m.add("sim.cycles."+name+"_pct", pct(float64(lt.breakdown[cat]), total))
	}
	predTrue, predFalse := lt.counters["sim.pred.true"], lt.counters["sim.pred.false"]
	m.add("sim.pred.precision", pct(float64(predTrue), float64(predTrue+predFalse))/100)
	m.add("sim.shard.msgs.sent", float64(lt.counters["sim.shard.msgs.sent"]))
	m.add("sim.shard.send_stall_spins", float64(lt.counters["sim.shard.send_stall_spins"]))
}
