package stm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestBFGTSBeginEscapeWatchdog pins the starvation hardening of the BFGTS
// begin loop: with the confidence table saturated and an "enemy" parked in
// the CPU table forever (its worker slot never clears, as happens when a
// foreign goroutine stalls mid-transaction), OnBegin must not spin-stall
// indefinitely — after beginEscapeLimit predicted-conflict rounds it
// proceeds optimistically and counts an escape.
func TestBFGTSBeginEscapeWatchdog(t *testing.T) {
	sys := NewSystem(Config{Workers: 2, StaticTxs: 1, Scheduler: SchedBFGTS})
	m := sys.mgr.(*bfgtsManager)
	// Saturate confidence so every predict() round reports a conflict, and
	// park worker 1's dtx in the CPU table with no transaction to finish.
	// Similarity 1.0 is the dangerous corner: the simulator's decay
	// DecayVal·(1−sim) would be zero, so only the decay floor and the
	// escape watchdog stand between this loop and livelock.
	m.conf.Add(0, 0, 1.0)
	m.stats[0].simBits.Store(math.Float64bits(1))
	m.stats[1].simBits.Store(math.Float64bits(1))
	// Through setRunning, exactly as a live transaction would.
	sys.setRunning(1, 1)

	done := make(chan struct{})
	go func() {
		m.OnBegin(0, 0, 0, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bfgts begin loop livelocked against a parked enemy")
	}
	if sys.met.beginEscapes.Load() == 0 {
		t.Fatal("watchdog escape not counted")
	}
	if sys.met.predicted.Load() == 0 {
		t.Fatal("no conflicts predicted despite saturated confidence")
	}
}

// TestManagerStressInvariant hammers all three managers with a mixed
// read/transfer workload under -race: value is conserved across randomized
// transfers, every manager commits every operation exactly once, and the
// metrics snapshot is coherent.
func TestManagerStressInvariant(t *testing.T) {
	const (
		workers = 8
		vars    = 32
		opsEach = 400
		total   = vars * 100
	)
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(Config{Workers: workers, StaticTxs: 2, Scheduler: kind})
			accts := make([]*TVar[int], vars)
			for i := range accts {
				accts[i] = NewTVar(100)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < opsEach; i++ {
						if i%4 == 0 {
							// Audit: read-only sweep, stx 1.
							err := sys.Atomic(w, 1, func(tx *Tx) error {
								sum := 0
								for _, a := range accts {
									sum += a.Read(tx)
								}
								if sum != total {
									t.Errorf("isolation broken: audit saw %d, want %d", sum, total)
								}
								return nil
							})
							if err != nil {
								t.Error(err)
							}
							continue
						}
						from, to := rng.Intn(vars), rng.Intn(vars)
						amt := rng.Intn(5)
						err := sys.Atomic(w, 0, func(tx *Tx) error {
							f := accts[from].Read(tx)
							accts[from].Write(tx, f-amt)
							accts[to].Write(tx, accts[to].Read(tx)+amt)
							return nil
						})
						if err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()
			sum := 0
			for _, a := range accts {
				sum += a.Peek()
			}
			if sum != total {
				t.Fatalf("value not conserved: %d, want %d", sum, total)
			}
			if got := sys.Commits(); got != workers*opsEach {
				t.Fatalf("commits = %d, want %d", got, workers*opsEach)
			}
			reg := metrics.New()
			sys.SnapshotMetrics(reg)
			snap := reg.Snapshot()
			if snap == nil || len(snap.Keys()) == 0 {
				t.Fatal("metrics snapshot is empty")
			}
			if reg.Counter("stm.commits").Value() != int64(workers*opsEach) {
				t.Fatal("snapshot commits disagree with System.Commits")
			}
		})
	}
}

// TestCustomManagerHook proves the ContentionManager seam: a Config-
// injected manager observes every hook with validated arguments.
func TestCustomManagerHook(t *testing.T) {
	rec := &recordingManager{}
	sys := NewSystem(Config{
		Workers: 2, StaticTxs: 2,
		NewManager: func(s *System) ContentionManager { rec.sys = s; return rec },
	})
	v := NewTVar(7)
	if err := sys.Atomic(1, 1, func(tx *Tx) error {
		v.Write(tx, v.Read(tx)*2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rec.sys != sys {
		t.Fatal("factory did not receive the System under construction")
	}
	if rec.begins != 1 || rec.commits != 1 {
		t.Fatalf("hooks saw begins=%d commits=%d, want 1/1", rec.begins, rec.commits)
	}
	if rec.lastDTx != 1*2+1 {
		t.Fatalf("OnCommit dtx = %d, want 3", rec.lastDTx)
	}
	if rec.lastSize != 1 {
		t.Fatalf("OnCommit size = %d, want 1 (one distinct line)", rec.lastSize)
	}
	if sys.Manager() != ContentionManager(rec) {
		t.Fatal("Manager() does not expose the injected manager")
	}
}

type recordingManager struct {
	sys      *System
	begins   int
	commits  int
	lastDTx  int
	lastSize int
}

func (r *recordingManager) Name() string                             { return "recording" }
func (r *recordingManager) OnBegin(worker, stx, dtx, attempt int)    { r.begins++ }
func (r *recordingManager) OnAbort(worker, stx, dtx, e, attempt int) {}
func (r *recordingManager) OnCommit(worker, stx, dtx int, lines, writes []uint64, size int) {
	r.commits++
	r.lastDTx = dtx
	r.lastSize = size
}
