package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// maxCycles is the live-lock guard every harness simulation runs under.
const maxCycles = 100_000_000_000

// cell is one simulation: a benchmark, a manager and a machine geometry.
type cell struct {
	bench, manager string
	factory        workload.Factory
	newManager     func(sched.Env) sched.Manager
	cores, tpc     int
	shards         int
	txs            int
}

// scaledTxs is the harness's transaction count for a factory at a scale.
func scaledTxs(f workload.Factory, scale float64) int {
	return max(64, int(float64(f.Txs)*scale))
}

// bfgtsSpec names and configures a BFGTS variant exactly as the harness
// does, so the cells below are the harness's cells.
func bfgtsSpec(mode sched.BFGTSMode, bloomBits int) harness.ManagerSpec {
	name := mode.String()
	if bloomBits != 0 {
		name = fmt.Sprintf("%s/%db", name, bloomBits)
	}
	return harness.ManagerSpec{Name: name, BloomBits: bloomBits, New: func(env sched.Env) sched.Manager {
		cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
		if bloomBits != 0 {
			cfg.BloomBits = bloomBits
		}
		return sched.NewBFGTS(env, mode, cfg)
	}}
}

// sweptModes are the BFGTS variants Figure 4a reports at their best Bloom
// size.
var sweptModes = []sched.BFGTSMode{sched.BFGTSSW, sched.BFGTSHW, sched.BFGTSHWBackoff}

// fig4aCells is every simulation harness.ExperimentByID("fig4a") runs, in
// the order it runs them at Workers=1: per STAMP kernel the single-core
// baseline, the three reactive baselines, the Bloom-size sweep of each
// BFGTS variant and the no-overhead bound, on 16 cores x 4 threads.
func fig4aCells(scale float64) []cell {
	var cells []cell
	for _, f := range stamp.All() {
		n := scaledTxs(f, scale)
		add := func(m harness.ManagerSpec, cores, tpc int) {
			cells = append(cells, cell{f.Name(), m.Name, f, m.New, cores, tpc, 1, n})
		}
		add(harness.BaselineSpecs()[0], 1, 1)
		for _, m := range harness.BaselineSpecs() {
			add(m, 16, 4)
		}
		for _, mode := range sweptModes {
			for _, bits := range harness.BloomSizes {
				add(bfgtsSpec(mode, bits), 16, 4)
			}
		}
		add(bfgtsSpec(sched.BFGTSNoOverhead, 0), 16, 4)
	}
	return cells
}

// wideCells is the 256-core workload: the shard-safe Backoff over two
// partitioned lanes, and BFGTS-SW unsharded, whose begin-time scan goes
// through the Bloofi directory.
func wideCells(txs int) []cell {
	f := harness.WideFactory(256, 4)
	pt := harness.PerThreadBackoffSpec()
	sw := bfgtsSpec(sched.BFGTSSW, 2048)
	return []cell{
		{f.Name(), pt.Name, f, pt.New, 256, 4, 2, txs},
		{f.Name(), sw.Name, f, sw.New, 256, 4, 1, txs},
	}
}

func runFig4aMatrix(r *run) {
	scale := 0.1
	if r.tiny {
		scale = 0.001 // every kernel at the 64-transaction floor
	}
	cells := fig4aCells(scale)
	first := runSim(r, cells)
	for _, row := range fig4aTable(cells, first) {
		fmt.Println(strings.Join(row, "\t"))
	}
}

// fig4aTable is Figure 4a's speedup table, as harness.Fig4a renders its
// rows, from the makespans of fig4aCells.
func fig4aTable(cells []cell, ds []digest) [][]string {
	makespan := map[string]int64{}
	for i, c := range cells {
		makespan[fmt.Sprintf("%s %s %d", c.bench, c.manager, c.cores)] = ds[i].makespan
	}
	get := func(bench, manager string, cores int) int64 {
		return makespan[fmt.Sprintf("%s %s %d", bench, manager, cores)]
	}
	var rows [][]string
	sums := make([]float64, len(harness.Fig4Managers))
	for _, f := range stamp.All() {
		base := get(f.Name(), harness.BaselineSpecs()[0].Name, 1)
		row := []string{f.Name()}
		for i, m := range harness.Fig4Managers {
			ms := get(f.Name(), m, 16)
			for _, mode := range sweptModes {
				if mode.String() != m {
					continue
				}
				ms = 0 // the best Bloom size: the lowest makespan, the smaller size on a tie
				for _, bits := range harness.BloomSizes {
					if v := get(f.Name(), bfgtsSpec(mode, bits).Name, 16); ms == 0 || v < ms {
						ms = v
					}
				}
			}
			sp := 0.0
			if ms != 0 {
				sp = float64(base) / float64(ms)
			}
			sums[i] += sp
			row = append(row, fmt.Sprintf("%.2f", sp))
		}
		rows = append(rows, row)
	}
	avg := []string{"AVG"}
	for _, sum := range sums {
		avg = append(avg, fmt.Sprintf("%.2f", sum/float64(len(stamp.All()))))
	}
	return append(rows, avg)
}

func runWide256(r *run) {
	txs := 120_000
	if r.tiny {
		txs = 2_000
	}
	runSim(r, wideCells(txs))
}

// digest is the part of a cell's result that must repeat exactly.
type digest struct {
	makespan, commits, aborts int64
}

// cellRun is one simulated cell with its host timings.
type cellRun struct {
	res                         *sim.Result
	newWorkload, newRunner, run time.Duration
	trace                       *cellTrace // nil on a plain run
}

// runCell builds and runs one cell, wrapping its workload and manager
// when traced. A panic is returned as an error so that it counts as a
// failed operation.
func runCell(c cell, seed uint64, traced bool) (out cellRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s/%s panicked: %v", c.bench, c.manager, p)
		}
	}()
	t0 := time.Now()
	w := c.factory.New(c.txs)
	newManager := c.newManager
	var reg *metrics.Registry
	if traced {
		out.trace = &cellTrace{}
		w = out.trace.wrapWorkload(w)
		newManager = out.trace.wrapManager(newManager)
		reg = metrics.New()
	}
	t1 := time.Now()
	runner := sim.NewRunner(sim.RunConfig{
		Cores:          c.cores,
		ThreadsPerCore: c.tpc,
		Seed:           seed,
		Workload:       w,
		NewManager:     newManager,
		MaxCycles:      maxCycles,
		Metrics:        reg,
		Shards:         c.shards,
	})
	t2 := time.Now()
	out.res = runner.Run()
	out.run = time.Since(t2)
	out.newWorkload, out.newRunner = t1.Sub(t0), t2.Sub(t1)
	return out, nil
}

// weighted is a value that stands for w samples.
type weighted struct {
	v float64
	w int64
}

// weightedPercentile returns the smallest value at or below which p
// percent of the total weight lies.
func weightedPercentile(xs []weighted, p float64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	var total int64
	for _, x := range xs {
		total += x.w
	}
	target := p / 100 * float64(total)
	var cum int64
	for _, x := range xs {
		cum += x.w
		if float64(cum) >= target {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// simRep is one repetition of a sim workload: every cell once.
type simRep struct {
	digests []digest
	// setup and run are each cell's host times.
	setup, run []time.Duration
	alloc      uint64
	wall       time.Duration
	layers     layerTotals // traced repetitions only
}

// runSimRep runs every cell once and checks each one: it must commit
// exactly the transactions its workload generated, without timing out.
func runSimRep(r *run, cells []cell, traced bool) simRep {
	rep := simRep{
		digests: make([]digest, len(cells)),
		setup:   make([]time.Duration, len(cells)),
		run:     make([]time.Duration, len(cells)),
	}
	a0, t0 := totalAlloc(), time.Now()
	for i, c := range cells {
		r.attempted++
		o, err := runCell(c, r.seed, traced)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		res := o.res
		rep.digests[i] = digest{res.Makespan, res.Commits, res.Aborts}
		if res.TimedOut {
			r.fail("%s/%s timed out", c.bench, c.manager)
		}
		if res.Commits != int64(c.txs) {
			r.fail("%s/%s committed %d of %d transactions", c.bench, c.manager, res.Commits, c.txs)
		}
		rep.setup[i] = o.newWorkload + o.newRunner
		rep.run[i] = o.run
		if traced {
			if g := o.trace.generated(); g != int64(c.txs) {
				r.fail("%s/%s generated %d of %d transactions", c.bench, c.manager, g, c.txs)
			}
			// Only the partitioned path sets the shard count: a wrapper
			// that lost Sharder or ShardSafe would silently measure the
			// entangled path instead.
			if n := res.Metrics.Gauges["sim.shard.count"]; c.shards > 1 && n != float64(c.shards) {
				r.fail("%s/%s ran on %v partitioned lanes, want %d", c.bench, c.manager, n, c.shards)
			}
			rep.layers.add(c, o)
		}
	}
	rep.wall = time.Since(t0)
	rep.alloc = totalAlloc() - a0
	return rep
}

// runSim measures a sim workload and returns the first repetition's
// per-cell digests. Every repetition must reproduce them, traced or not:
// the simulator is deterministic, and the wrappers only observe it.
//
// Host times are taken per cell as the median over the plain
// repetitions, then summed, so that a burst of load on the host slows
// one repetition of a few cells, not the figure.
func runSim(r *run, cells []cell) []digest {
	setups := make([][]float64, len(cells))
	runs := make([][]float64, len(cells))
	var allocs []float64
	layer := medians{}
	var first []digest
	var plainWall, tracedWall []float64
	atLeast := 1
	if r.trace {
		atLeast = 2
	}
	r.repeat(atLeast, func(i int) {
		traced := r.trace && i%2 == 1
		rep := runSimRep(r, cells, traced)
		if first == nil {
			first = rep.digests
		} else {
			for j, d := range rep.digests {
				if d != first[j] {
					r.fail("%s/%s repetition %d (traced=%v) digest %+v, first run %+v",
						cells[j].bench, cells[j].manager, i, traced, d, first[j])
				}
			}
		}
		if traced {
			tracedWall = append(tracedWall, rep.wall.Seconds())
			rep.layers.report(layer)
			return
		}
		plainWall = append(plainWall, rep.wall.Seconds())
		for j := range cells {
			setups[j] = append(setups[j], rep.setup[j].Seconds())
			runs[j] = append(runs[j], rep.run[j].Seconds())
		}
		allocs = append(allocs, float64(rep.alloc)/1e6)
	})
	if r.trace {
		layer.into(r)
		r.set("workload.alloc_mb", drainAllocMB(cells, r.seed))
		r.set("trace.overhead_pct", 100*(median(tracedWall)/median(plainWall)-1))
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "stm.") {
				r.set(d.name, 0)
			}
		}
		return first
	}
	var setup, runTime float64
	var commits int64
	costs := make([]weighted, len(cells))
	for j, c := range cells {
		rt, st := median(runs[j]), median(setups[j])
		fmt.Printf("%s/%s %dx%d: run %.2f ms, setup %.3f ms (medians of %d), makespan %d, commits %d, aborts %d\n",
			c.bench, c.manager, c.cores, c.tpc, rt*1e3, st*1e3, len(runs[j]), first[j].makespan, first[j].commits, first[j].aborts)
		setup += st
		runTime += rt
		commits += int64(c.txs)
		costs[j] = weighted{rt * 1e6 / float64(c.txs), int64(c.txs)}
	}
	r.set("setup_s", setup)
	r.set("commits_per_s", float64(commits)/runTime)
	r.set("p50_us", weightedPercentile(costs, 50))
	r.set("p99_us", weightedPercentile(costs, 99))
	r.set("alloc_mb", median(allocs))
	r.set("peak_rss_mb", peakRSSMB())
	return first
}

// drainAllocMB is the bytes the cells' workloads allocate to generate
// their transactions, measured apart from the simulator: each cell's
// programs are built as sim.NewRunner builds them and drained one after
// another, applying each transaction's commit side effect at once.
func drainAllocMB(cells []cell, seed uint64) float64 {
	var bytes uint64
	for _, c := range cells {
		runtime.GC()
		a0 := totalAlloc()
		w := c.factory.New(c.txs)
		n := c.cores * c.tpc
		base := workload.NewRNG(seed)
		progs := make([]workload.Program, n)
		for tid := range progs {
			progs[tid] = w.NewProgram(tid, n, base.Derive(uint64(tid)).Uint64())
		}
		for _, p := range progs {
			for {
				_, tx, ok := p.Next()
				if !ok {
					break
				}
				if tx.OnCommit != nil {
					tx.OnCommit()
				}
			}
		}
		bytes += totalAlloc() - a0
	}
	return float64(bytes) / 1e6
}
