package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stm"
)

// The STM workloads are closed loops: stmWorkers goroutines, each calling
// Atomic again only after its previous call returned, under the BFGTS
// contention manager.
const (
	stmWorkers = 2
	// slowOp is the latency above which an Atomic call counts as slow.
	slowOp = 100 * time.Microsecond
)

// stmWorkload is a live-STM workload: the TVars it shares, the generated
// operations of each worker, and the invariant the final state must meet.
type stmWorkload struct {
	name      string
	staticTxs int
	// newState builds the TVars; it is part of set-up.
	newState func() []*stm.TVar[int64]
	// newWorker returns worker w's operation: do(i) runs the worker's
	// i-th generated operation as one Atomic call, its transaction
	// function passed through body.
	newWorker func(sys *stm.System, state []*stm.TVar[int64], w int, body func(fn func(*stm.Tx) error) func(*stm.Tx) error) (do func(i int) error)
	// check verifies the state after ops Atomic calls committed.
	check func(state []*stm.TVar[int64], ops int64) error
}

// hot is stm-hot: every transaction reads hotReads TVars of a hotSet-TVar
// hot set and increments hotWrites of them, so transactions are similar
// and conflict persistently.
const (
	hotSet    = 32
	hotReads  = 16
	hotWrites = 2
)

func runSTMHot(r *run) {
	opsPerWorker := 50_000
	if r.tiny {
		opsPerWorker = 500
	}
	// Each worker's operations: hotReads distinct indices of the hot set,
	// the first hotWrites of which are also written.
	ops := make([][][hotReads]uint8, stmWorkers)
	for w := range ops {
		rng := rand.New(rand.NewSource(int64(r.seed)*stmWorkers + int64(w)))
		ops[w] = make([][hotReads]uint8, opsPerWorker)
		for i := range ops[w] {
			perm := rng.Perm(hotSet)
			for j := range ops[w][i] {
				ops[w][i][j] = uint8(perm[j])
			}
		}
	}
	runSTM(r, opsPerWorker, stmWorkload{
		name:      "stm-hot",
		staticTxs: 1,
		newState:  func() []*stm.TVar[int64] { return newTVars(hotSet, 0) },
		newWorker: func(sys *stm.System, hot []*stm.TVar[int64], w int, body func(func(*stm.Tx) error) func(*stm.Tx) error) func(int) error {
			var op *[hotReads]uint8
			fn := body(func(tx *stm.Tx) error {
				for _, k := range op {
					hot[k].Read(tx)
				}
				for _, k := range op[:hotWrites] {
					hot[k].Write(tx, hot[k].Read(tx)+1)
				}
				return nil
			})
			return func(i int) error {
				op = &ops[w][i]
				return sys.Atomic(w, 0, fn)
			}
		},
		check: func(hot []*stm.TVar[int64], ops int64) error {
			if sum, want := sumTVars(hot), hotWrites*ops; sum != want {
				return fmt.Errorf("hot set holds %d increments, %d commits wrote %d", sum, ops, want)
			}
			return nil
		},
	})
}

// zipf is stm-zipf: zipfKeys accounts with Zipf(zipfS) keys; lookupPct
// percent of transactions read two accounts, the rest move one unit from
// one account to another.
const (
	zipfKeys       = 1024
	zipfS          = 1.2
	lookupPct      = 80
	initialBalance = 1000
)

// zipfOp is one generated stm-zipf operation.
type zipfOp struct {
	transfer bool
	a, b     uint16
}

func runSTMZipf(r *run) {
	opsPerWorker := 150_000
	if r.tiny {
		opsPerWorker = 500
	}
	ops := make([][]zipfOp, stmWorkers)
	for w := range ops {
		rng := rand.New(rand.NewSource(int64(r.seed)*stmWorkers + int64(w)))
		z := rand.NewZipf(rng, zipfS, 1, zipfKeys-1)
		ops[w] = make([]zipfOp, opsPerWorker)
		for i := range ops[w] {
			a, b := z.Uint64(), z.Uint64()
			if a == b {
				b = (a + 1) % zipfKeys
			}
			ops[w][i] = zipfOp{transfer: rng.Intn(100) >= lookupPct, a: uint16(a), b: uint16(b)}
		}
	}
	runSTM(r, opsPerWorker, stmWorkload{
		name:      "stm-zipf",
		staticTxs: 2,
		newState:  func() []*stm.TVar[int64] { return newTVars(zipfKeys, initialBalance) },
		newWorker: func(sys *stm.System, accts []*stm.TVar[int64], w int, body func(func(*stm.Tx) error) func(*stm.Tx) error) func(int) error {
			var op *zipfOp
			lookup := body(func(tx *stm.Tx) error {
				accts[op.a].Read(tx)
				accts[op.b].Read(tx)
				return nil
			})
			transfer := body(func(tx *stm.Tx) error {
				a, b := accts[op.a].Read(tx), accts[op.b].Read(tx)
				accts[op.a].Write(tx, a-1)
				accts[op.b].Write(tx, b+1)
				return nil
			})
			return func(i int) error {
				op = &ops[w][i]
				if op.transfer {
					return sys.Atomic(w, 1, transfer)
				}
				return sys.Atomic(w, 0, lookup)
			}
		},
		check: func(accts []*stm.TVar[int64], _ int64) error {
			if sum, want := sumTVars(accts), int64(zipfKeys*initialBalance); sum != want {
				return fmt.Errorf("accounts hold %d, transfers must conserve %d", sum, want)
			}
			return nil
		},
	})
}

func newTVars(n int, initial int64) []*stm.TVar[int64] {
	vs := make([]*stm.TVar[int64], n)
	for i := range vs {
		vs[i] = stm.NewTVar(initial)
	}
	return vs
}

func sumTVars(vs []*stm.TVar[int64]) int64 {
	var sum int64
	for _, v := range vs {
		sum += v.Peek()
	}
	return sum
}

// stmRep is one repetition: a fresh System running every worker's
// operations once.
type stmRep struct {
	setup, wall time.Duration
	alloc       uint64
	lat         []int64 // per-Atomic wall nanoseconds, sorted
	body        time.Duration
	bodyCalls   int64
	snap        *metrics.Snapshot
}

// runSTMRep runs one repetition. lat holds one preallocated sample slice
// per worker and all room for every sample; traced wraps every
// transaction body in a timer.
func runSTMRep(r *run, wl stmWorkload, opsPerWorker int, lat [][]int64, all []int64, traced bool) stmRep {
	rep := stmRep{lat: all[:0]}
	a0, t0 := totalAlloc(), time.Now()
	sys := stm.NewSystem(stm.Config{Workers: stmWorkers, StaticTxs: wl.staticTxs, Scheduler: stm.SchedBFGTS})
	state := wl.newState()
	rep.setup = time.Since(t0)

	bodies := make([]time.Duration, stmWorkers)
	calls := make([]int64, stmWorkers)
	errs := make([]error, stmWorkers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < stmWorkers; w++ {
		body := func(fn func(*stm.Tx) error) func(*stm.Tx) error { return fn }
		if traced {
			body = func(fn func(*stm.Tx) error) func(*stm.Tx) error {
				return func(tx *stm.Tx) error {
					t := time.Now()
					defer func() { bodies[w] += time.Since(t); calls[w]++ }()
					return fn(tx)
				}
			}
		}
		do := wl.newWorker(sys, state, w, body)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("worker %d panicked: %v", w, p)
				}
			}()
			<-start
			for i := range lat[w] {
				t := time.Now()
				err := do(i)
				lat[w][i] = int64(time.Since(t))
				if err != nil && errs[w] == nil {
					errs[w] = fmt.Errorf("worker %d op %d: %w", w, i, err)
				}
			}
		}()
	}
	t1 := time.Now()
	close(start)
	wg.Wait()
	rep.wall = time.Since(t1)
	rep.alloc = totalAlloc() - a0

	ops := int64(stmWorkers * opsPerWorker)
	r.attempted += ops
	for _, err := range errs {
		if err != nil {
			r.fail("%s: %v", wl.name, err)
		}
	}
	if c := sys.Commits(); c != ops {
		r.fail("%s: %d commits for %d Atomic calls", wl.name, c, ops)
	}
	if err := wl.check(state, ops); err != nil {
		r.fail("%s: %v", wl.name, err)
	}
	for w := range lat {
		rep.lat = append(rep.lat, lat[w]...)
		rep.body += bodies[w]
		rep.bodyCalls += calls[w]
	}
	slices.Sort(rep.lat)
	if traced {
		reg := metrics.New()
		sys.SnapshotMetrics(reg)
		rep.snap = reg.Snapshot()
	}
	return rep
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// and how many samples lie above it.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	i := max(int(math.Ceil(p/100*float64(len(sorted))))-1, 0)
	v = sorted[i]
	above, _ := slices.BinarySearch(sorted, v+1)
	return v, len(sorted) - above
}

// runSTM measures an STM workload.
func runSTM(r *run, opsPerWorker int, wl stmWorkload) {
	lat := make([][]int64, stmWorkers)
	for w := range lat {
		lat[w] = make([]int64, opsPerWorker)
	}
	all := make([]int64, 0, stmWorkers*opsPerWorker)
	e2e, layer := medians{}, medians{}
	var plainWall, tracedWall []float64
	atLeast := 1
	if r.trace {
		atLeast = 2
	}
	r.repeat(atLeast, func(i int) {
		traced := r.trace && i%2 == 1
		rep := runSTMRep(r, wl, opsPerWorker, lat, all, traced)
		ops := float64(len(rep.lat))
		p50, beyond50 := percentile(rep.lat, 50)
		p99, beyond99 := percentile(rep.lat, 99)
		fmt.Printf("%s rep %d traced=%v: %d ops in %.3fs; p50 %.2fus (%d of %d samples beyond), p99 %.2fus (%d beyond)\n",
			wl.name, i, traced, len(rep.lat), rep.wall.Seconds(), float64(p50)/1e3, beyond50, len(rep.lat), float64(p99)/1e3, beyond99)
		if !traced {
			plainWall = append(plainWall, rep.wall.Seconds())
			e2e.add("setup_s", rep.setup.Seconds())
			e2e.add("commits_per_s", ops/rep.wall.Seconds())
			e2e.add("p50_us", float64(p50)/1e3)
			e2e.add("p99_us", float64(p99)/1e3)
			e2e.add("alloc_mb", float64(rep.alloc)/1e6)
			return
		}
		tracedWall = append(tracedWall, rep.wall.Seconds())
		var atomic int64
		slow := 0
		for _, ns := range rep.lat {
			atomic += ns
			if time.Duration(ns) > slowOp {
				slow++
			}
		}
		c := rep.snap.Counters
		attempts := float64(c["stm.commits"] + c["stm.aborts"])
		layer.add("stm.atomic_ns", float64(atomic)/ops)
		layer.add("stm.body_ns", float64(rep.body.Nanoseconds())/ops)
		layer.add("stm.overhead_ns", float64(atomic-rep.body.Nanoseconds())/ops)
		layer.add("stm.attempts_per_op", attempts/ops)
		layer.add("stm.abort_pct", pct(float64(c["stm.aborts"]), attempts))
		layer.add("stm.predicted_pct", pct(float64(c["stm.predicted_conflicts"]), attempts))
		layer.add("stm.yields", float64(c["stm.yields"]))
		layer.add("stm.stalls", float64(c["stm.stalls"]))
		hits, misses := c["stm.validation_hits"], c["stm.validation_misses"]
		layer.add("stm.validation_hit_pct", pct(float64(hits), float64(hits+misses)))
		layer.add("stm.probe_len_mean", rep.snap.Histograms["stm.predict.probe_len"].Mean)
		layer.add("stm.probe_nodes_mean", rep.snap.Histograms["stm.predict.probe_nodes"].Mean)
		layer.add("stm.slow_ops", float64(slow))
		layer.add("stm.backoff_ms", float64(c["stm.backoff_nanos"])/1e6)
		if rep.bodyCalls != int64(attempts) {
			r.fail("%s: %d body calls for %v attempts", wl.name, rep.bodyCalls, attempts)
		}
	})
	if !r.trace {
		e2e.into(r)
		r.set("peak_rss_mb", peakRSSMB())
		return
	}
	layer.into(r)
	r.set("trace.overhead_pct", 100*(median(tracedWall)/median(plainWall)-1))
	for _, d := range perLayer {
		if !strings.HasPrefix(d.name, "stm.") && !strings.HasPrefix(d.name, "trace.") {
			r.set(d.name, 0)
		}
	}
}
