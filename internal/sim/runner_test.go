package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// synthWorkload is a configurable micro-benchmark for runner tests: each
// thread runs txPerThread transactions of one static ID; a transaction
// reads/writes `span` lines starting at a base chosen by `pick`.
type synthWorkload struct {
	name        string
	nStatic     int
	txPerThread int
	span        int
	body        int64
	pre         int64
	// pick returns the first line index for transaction i of thread tid.
	pick func(tid, i int, rng *workload.RNG) int
	// stxOf selects the static transaction ID.
	stxOf  func(tid, i int) int
	region workload.Region
}

func newSynth(name string, nStatic, txPerThread, span int) *synthWorkload {
	sp := workload.NewSpace()
	return &synthWorkload{
		name:        name,
		nStatic:     nStatic,
		txPerThread: txPerThread,
		span:        span,
		body:        200,
		pre:         500,
		region:      sp.Alloc("data", 1<<16),
		pick:        func(tid, i int, rng *workload.RNG) int { return rng.Intn(1 << 15) },
		stxOf:       func(tid, i int) int { return 0 },
	}
}

func (w *synthWorkload) Name() string   { return w.name }
func (w *synthWorkload) NumStatic() int { return w.nStatic }

type synthProgram struct {
	w    *synthWorkload
	tid  int
	rng  *workload.RNG
	left int
	i    int
}

func (w *synthWorkload) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	return &synthProgram{w: w, tid: tid, rng: workload.NewRNG(seed), left: w.txPerThread}
}

func (p *synthProgram) Next() (int64, *workload.TxDesc, bool) {
	if p.left == 0 {
		return 0, nil, false
	}
	p.left--
	i := p.i
	p.i++
	base := p.w.pick(p.tid, i, p.rng)
	desc := &workload.TxDesc{
		STx:        p.w.stxOf(p.tid, i),
		BodyCycles: p.w.body,
	}
	// Read the span first, then upgrade the first half to writes — the
	// read-modify-write shape of real transactions, which is what makes
	// concurrent conflicting transactions deadlock and abort rather than
	// convoy politely.
	for j := 0; j < p.w.span; j++ {
		desc.Accesses = append(desc.Accesses, workload.Access{Addr: p.w.region.Line(base + j)})
	}
	for j := 0; j < (p.w.span+1)/2; j++ {
		desc.Accesses = append(desc.Accesses, workload.Access{Addr: p.w.region.Line(base + j), Write: true})
	}
	return p.w.pre, desc, true
}

func managerFactory(name string) func(env sched.Env) sched.Manager {
	return func(env sched.Env) sched.Manager {
		switch name {
		case "backoff":
			return sched.NewBackoff(env)
		case "ats":
			return sched.NewATS(env)
		case "pts":
			return sched.NewPTS(env)
		case "bfgts-sw":
			return sched.NewBFGTS(env, sched.BFGTSSW, core.DefaultConfig(env.NumThreads, env.NumStatic))
		case "bfgts-hw":
			return sched.NewBFGTS(env, sched.BFGTSHW, core.DefaultConfig(env.NumThreads, env.NumStatic))
		case "bfgts-hyb":
			return sched.NewBFGTS(env, sched.BFGTSHWBackoff, core.DefaultConfig(env.NumThreads, env.NumStatic))
		case "bfgts-no":
			return sched.NewBFGTS(env, sched.BFGTSNoOverhead, core.DefaultConfig(env.NumThreads, env.NumStatic))
		case "polite":
			return sched.NewPolite(env)
		case "karma":
			return sched.NewKarma(env)
		case "timestamp":
			return sched.NewTimestampCM(env)
		default:
			panic("unknown manager " + name)
		}
	}
}

func runSynth(t *testing.T, w workload.Workload, mgr string, cores, tpc int) *Result {
	t.Helper()
	r := NewRunner(RunConfig{
		Cores:          cores,
		ThreadsPerCore: tpc,
		Seed:           42,
		Workload:       w,
		NewManager:     managerFactory(mgr),
		MaxCycles:      2_000_000_000,
	})
	res := r.Run()
	if res.TimedOut {
		t.Fatalf("%s on %s timed out", mgr, w.Name())
	}
	return res
}

func allManagers() []string {
	return []string{"backoff", "ats", "pts", "bfgts-sw", "bfgts-hw", "bfgts-hyb", "bfgts-no"}
}

func TestDisjointWorkloadCommitsEverything(t *testing.T) {
	for _, mgr := range allManagers() {
		w := newSynth("disjoint", 1, 30, 4)
		// Each thread works in its own region slice: never conflicts.
		w.pick = func(tid, i int, rng *workload.RNG) int { return tid*1000 + i*5 }
		res := runSynth(t, w, mgr, 4, 2)
		wantCommits := int64(4 * 2 * 30)
		if res.Commits != wantCommits {
			t.Errorf("%s: commits = %d, want %d", mgr, res.Commits, wantCommits)
		}
		if res.Aborts != 0 {
			t.Errorf("%s: aborts = %d on disjoint workload", mgr, res.Aborts)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, mgr := range []string{"backoff", "bfgts-hw"} {
		mk := func() *Result {
			w := newSynth("hot", 1, 20, 4)
			w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(8) }
			return runSynth(t, w, mgr, 4, 4)
		}
		a, b := mk(), mk()
		if a.Makespan != b.Makespan || a.Commits != b.Commits || a.Aborts != b.Aborts {
			t.Errorf("%s: runs diverged: (%d,%d,%d) vs (%d,%d,%d)", mgr,
				a.Makespan, a.Commits, a.Aborts, b.Makespan, b.Commits, b.Aborts)
		}
	}
}

func TestHotWorkloadConflictsUnderBackoff(t *testing.T) {
	w := newSynth("hot", 1, 25, 6)
	w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(4) }
	w.body = 800
	res := runSynth(t, w, "backoff", 4, 4)
	if res.Aborts == 0 {
		t.Fatal("hot workload produced no aborts under Backoff")
	}
	if res.Commits != 4*4*25 {
		t.Fatalf("commits = %d, want %d", res.Commits, 4*4*25)
	}
	if res.ContentionPct() <= 0 {
		t.Fatal("contention percentage not positive")
	}
	if res.ConflictMatrix[0][0] == 0 {
		t.Fatal("conflict matrix empty despite aborts")
	}
}

func TestSchedulersReduceContentionOnPersistentConflicts(t *testing.T) {
	// Every transaction touches the same 4 lines: a maximally persistent
	// conflict. Proactive schedulers must end up with fewer aborts than
	// Backoff.
	mk := func(mgr string) *Result {
		w := newSynth("persistent", 1, 60, 4)
		w.pick = func(tid, i int, rng *workload.RNG) int { return 0 }
		w.body = 600
		return runSynth(t, w, mgr, 4, 4)
	}
	backoff := mk("backoff")
	for _, mgr := range []string{"bfgts-sw", "bfgts-hw", "bfgts-no"} {
		res := mk(mgr)
		if res.Commits != backoff.Commits {
			t.Fatalf("%s commits = %d, want %d", mgr, res.Commits, backoff.Commits)
		}
		if res.Aborts >= backoff.Aborts {
			t.Errorf("%s aborts = %d, not below backoff's %d", mgr, res.Aborts, backoff.Aborts)
		}
	}
}

func TestBreakdownAccountsAllCategories(t *testing.T) {
	w := newSynth("mix", 1, 20, 4)
	w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(6) }
	res := runSynth(t, w, "bfgts-sw", 4, 4)
	b := res.Breakdown
	if b[CatNonTx] == 0 || b[CatTx] == 0 || b[CatKernel] == 0 {
		t.Fatalf("breakdown missing basics: %v", b)
	}
	if b[CatScheduling] == 0 {
		t.Fatal("BFGTS-SW charged no scheduling time")
	}
	if b.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
}

func TestATSSerializationProducesKernelTime(t *testing.T) {
	mkKernel := func(mgr string) float64 {
		w := newSynth("hot", 1, 25, 4)
		w.pick = func(tid, i int, rng *workload.RNG) int { return 0 }
		w.body = 600
		res := runSynth(t, w, mgr, 4, 4)
		return float64(res.Breakdown[CatKernel]+res.Breakdown[CatIdle]) / float64(res.Breakdown.Total())
	}
	ats := mkKernel("ats")
	backoff := mkKernel("backoff")
	if ats <= backoff {
		t.Errorf("ATS kernel+idle share (%.3f) not above Backoff's (%.3f)", ats, backoff)
	}
}

func TestSingleCoreBaselineSequential(t *testing.T) {
	w := newSynth("seq", 1, 40, 4)
	w.pick = func(tid, i int, rng *workload.RNG) int { return 0 }
	res := runSynth(t, w, "backoff", 1, 1)
	if res.Aborts != 0 {
		t.Fatalf("single-threaded run aborted %d times", res.Aborts)
	}
	if res.Commits != 40 {
		t.Fatalf("commits = %d, want 40", res.Commits)
	}
}

func TestParallelSpeedupOnDisjointWork(t *testing.T) {
	mk := func(cores, tpc, txs int) int64 {
		w := newSynth("scale", 1, txs, 4)
		w.pre = 3000
		w.body = 1000
		w.pick = func(tid, i int, rng *workload.RNG) int { return tid*2000 + i*10 }
		return runSynth(t, w, "backoff", cores, tpc).Makespan
	}
	// 640 transactions total in both runs.
	seq := mk(1, 1, 640)
	par := mk(8, 2, 40)
	speedup := float64(seq) / float64(par)
	if speedup < 4 {
		t.Fatalf("8-core speedup on disjoint work = %.2f, want >= 4", speedup)
	}
}

func TestProfileSimilarityExtremes(t *testing.T) {
	run := func(pick func(tid, i int, rng *workload.RNG) int) float64 {
		w := newSynth("sim", 1, 30, 8)
		w.pick = pick
		r := NewRunner(RunConfig{
			Cores: 2, ThreadsPerCore: 1, Seed: 7,
			Workload:          w,
			NewManager:        managerFactory("backoff"),
			ProfileSimilarity: true,
			MaxCycles:         1_000_000_000,
		})
		res := r.Run()
		return res.Similarity[0]
	}
	same := run(func(tid, i int, rng *workload.RNG) int { return tid * 5000 })
	rnd := run(func(tid, i int, rng *workload.RNG) int { return rng.Intn(1 << 15) })
	if same < 0.9 {
		t.Errorf("repeated-footprint similarity = %.3f, want ~1", same)
	}
	if rnd > 0.2 {
		t.Errorf("random-footprint similarity = %.3f, want ~0", rnd)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	w := newSynth("long", 1, 1000, 2)
	w.pre = 100000
	r := NewRunner(RunConfig{
		Cores: 1, ThreadsPerCore: 1, Seed: 1,
		Workload:   w,
		NewManager: managerFactory("backoff"),
		MaxCycles:  50000,
	})
	res := r.Run()
	if !res.TimedOut {
		t.Fatal("MaxCycles guard did not fire")
	}
}

func TestOvercommittedThreadsAllFinish(t *testing.T) {
	w := newSynth("over", 2, 15, 4)
	w.stxOf = func(tid, i int) int { return i % 2 }
	w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(12) }
	for _, mgr := range allManagers() {
		res := runSynth(t, w, mgr, 2, 8) // 16 threads on 2 cores
		if res.Commits != 2*8*15 {
			t.Errorf("%s: commits = %d, want %d", mgr, res.Commits, 2*8*15)
		}
	}
}

func TestCommitsPerStx(t *testing.T) {
	w := newSynth("stx", 3, 30, 2)
	w.stxOf = func(tid, i int) int { return i % 3 }
	w.pick = func(tid, i int, rng *workload.RNG) int { return tid*100 + i }
	res := runSynth(t, w, "backoff", 2, 2)
	for s := 0; s < 3; s++ {
		if res.CommitsPerStx[s] != 4*10 {
			t.Fatalf("stx %d commits = %d, want 40", s, res.CommitsPerStx[s])
		}
	}
}

func TestATSBlockWakeUnderRunner(t *testing.T) {
	// A maximally hot workload drives ATS pressure over threshold: threads
	// must serialize through the central queue (block/wake) and still all
	// finish with every transaction committed.
	w := newSynth("atshot", 1, 40, 4)
	w.pick = func(tid, i int, rng *workload.RNG) int { return 0 }
	w.body = 700
	res := runSynth(t, w, "ats", 4, 4)
	if res.Commits != 4*4*40 {
		t.Fatalf("commits = %d, want %d", res.Commits, 4*4*40)
	}
	if res.Breakdown[CatKernel] == 0 {
		t.Fatal("ATS serialization produced no kernel time")
	}
}

// TestATSWakeBeforeBlockCells replays the two STAMP cells where the ATS
// token holder committed and woke a queued thread while that thread was
// still paying its begin overhead, before its ThreadBlock. The wake used
// to be dropped as spurious, stranding the new token owner and every
// thread queued behind it: kmeans committed 194 of 2000 transactions,
// delaunay 1499 of 1500, and both runs ended looking finished.
func TestATSWakeBeforeBlockCells(t *testing.T) {
	for _, c := range []struct {
		bench string
		seed  uint64
		txs   int // the Figure 4a cell at scale 0.1
	}{{"kmeans", 11, 2000}, {"delaunay", 39, 1500}} {
		f, ok := stamp.ByName(c.bench)
		if !ok {
			t.Fatalf("no STAMP benchmark %q", c.bench)
		}
		res := NewRunner(RunConfig{
			Cores:          16,
			ThreadsPerCore: 4,
			Seed:           c.seed,
			Workload:       f.New(c.txs),
			NewManager:     managerFactory("ats"),
			MaxCycles:      100_000_000_000,
		}).Run()
		if res.TimedOut || res.Commits != int64(c.txs) {
			t.Errorf("%s/ATS seed %d: committed %d of %d (timed out: %v)",
				c.bench, c.seed, res.Commits, c.txs, res.TimedOut)
		}
	}
}

// neverWake parks every begin on a queue nobody drains: a manager with a
// lost wakeup, reduced to its essence.
type neverWake struct{ sched.Manager }

func (neverWake) OnBegin(tid, stx int) sched.BeginResult {
	return sched.BeginResult{Action: sched.Block}
}

// TestStrandedThreadsPanic pins the drained-heap guard: when every event
// has fired but threads are still parked, the run must fail loudly — with
// metrics on too, where the sampler would otherwise keep the heap alive —
// instead of returning a Result that looks finished.
func TestStrandedThreadsPanic(t *testing.T) {
	for _, withMetrics := range []bool{false, true} {
		cfg := RunConfig{
			Cores: 2, ThreadsPerCore: 2, Seed: 1,
			Workload: newSynth("stranded", 1, 3, 2),
			NewManager: func(env sched.Env) sched.Manager {
				return neverWake{sched.NewBackoff(env)}
			},
			MaxCycles: 2_000_000_000,
		}
		if withMetrics {
			cfg.Metrics = metrics.New()
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "event heap drained with 4 live threads") {
					t.Errorf("metrics=%v: recovered %q, want the drained-heap panic", withMetrics, msg)
				}
			}()
			NewRunner(cfg).Run()
		}()
	}
}

func TestPTSYieldPathUnderRunner(t *testing.T) {
	// PTS serializes via YieldRetry; the workload must finish and commit
	// everything even when predictions keep threads yielding.
	w := newSynth("ptshot", 2, 40, 4)
	w.stxOf = func(tid, i int) int { return i % 2 }
	w.pick = func(tid, i int, rng *workload.RNG) int { return i % 3 }
	w.body = 700
	res := runSynth(t, w, "pts", 4, 4)
	if res.Commits != 4*4*40 {
		t.Fatalf("commits = %d, want %d", res.Commits, 4*4*40)
	}
}

func TestReactiveManagersUnderRunner(t *testing.T) {
	for _, mgr := range []string{"polite", "karma", "timestamp"} {
		w := newSynth("reactive-"+mgr, 1, 30, 4)
		w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(3) }
		w.body = 500
		res := runSynth(t, w, mgr, 4, 4)
		if res.Commits != 4*4*30 {
			t.Errorf("%s: commits = %d, want %d", mgr, res.Commits, 4*4*30)
		}
	}
}

func TestHybridPressureGatingUnderRunner(t *testing.T) {
	// Low-contention workload: the hybrid must stay in backoff mode and be
	// nearly as cheap as plain Backoff (scheduling share within noise).
	mk := func(mgr string) *Result {
		w := newSynth("calm", 1, 40, 4)
		w.pick = func(tid, i int, rng *workload.RNG) int { return tid*100 + i }
		return runSynth(t, w, mgr, 4, 2)
	}
	hyb, bfgts := mk("bfgts-hyb"), mk("bfgts-hw")
	hybSched := float64(hyb.Breakdown[CatScheduling])
	hwSched := float64(bfgts.Breakdown[CatScheduling])
	if hybSched >= hwSched {
		t.Fatalf("calm hybrid scheduling time (%v) not below BFGTS-HW's (%v)", hybSched, hwSched)
	}
}
