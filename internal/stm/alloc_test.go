package stm

import (
	"testing"

	"repro/internal/core"
)

// The runtime halves of the package's allocation discipline (the static
// half is bfgtsvet's allocfree analyzer over the annotated hot paths).
// All three gates warm the pooled per-worker state first: the pools are
// explicitly allowed to allocate while growing to steady state.

// TestReadOnlyPathAllocFree pins the conflict-free read path at zero
// allocations per transaction: pooled Tx, entry-slice read set, no maps.
func TestReadOnlyPathAllocFree(t *testing.T) {
	sys := NewSystem(Config{Workers: 1, StaticTxs: 1, Scheduler: SchedBFGTS})
	vars := make([]*TVar[int], 8)
	for i := range vars {
		vars[i] = NewTVar(i)
	}
	body := func(tx *Tx) error {
		n := 0
		for _, v := range vars {
			n += v.Read(tx)
		}
		if n < 0 {
			t.Fatal("impossible sum")
		}
		return nil
	}
	run := func() {
		if err := sys.Atomic(0, 0, body); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pooled capacities
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("read-only transaction allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAbortRetryPathAllocFree pins the begin→abort→retry path: a
// read-only transaction deterministically doomed on its first attempt by
// a nested conflicting commit must add nothing to the conflicter's own
// publish cost. Expected allocations per run: exactly 1 — the boxed value
// cell published by the nested bump (values stay under 256 so interface
// boxing hits the runtime's static cache). The aborted attempt, the
// txAbort unwind (a zero-size panic value), OnAbort's confidence update,
// backoff, and the retry contribute zero.
func TestAbortRetryPathAllocFree(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(Config{Workers: 2, StaticTxs: 2, Scheduler: kind})
			shared := NewTVar(0)
			bump := func() {
				err := sys.Atomic(1, 1, func(tx *Tx) error {
					shared.Write(tx, (shared.Read(tx)+1)&1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			attempts := 0
			run := func() {
				attempts = 0
				err := sys.Atomic(0, 0, func(tx *Tx) error {
					attempts++
					got := shared.Read(tx)
					if attempts == 1 {
						bump() // nested same-goroutine commit dooms this attempt
						if again := shared.Read(tx); again != got {
							t.Fatal("doomed re-read returned inconsistent data")
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if attempts < 2 {
					t.Fatal("conflict injection did not force a retry")
				}
			}
			for i := 0; i < 30; i++ {
				run() // warm pools, goroutine timer, signature batching
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 1 {
				t.Fatalf("abort/retry cycle allocates %.1f objects/op, want exactly 1 (the bump's published cell)", allocs)
			}
		})
	}
}

// TestCommitPathAllocs pins the write-commit path at exactly one
// allocation per written TVar: the published immutable value cell. The
// locked/order scratch of the old commit path (fresh slices plus a
// sort.Slice closure per commit) is gone.
func TestCommitPathAllocs(t *testing.T) {
	sys := NewSystem(Config{Workers: 1, StaticTxs: 1, Scheduler: SchedBFGTS})
	vars := make([]*TVar[int], 4)
	for i := range vars {
		vars[i] = NewTVar(0)
	}
	run := func() {
		err := sys.Atomic(0, 0, func(tx *Tx) error {
			for _, v := range vars {
				v.Write(tx, (v.Read(tx)+1)&0x7f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != float64(len(vars)) {
		t.Fatalf("commit of %d writes allocates %.1f objects/op, want exactly %d (one published cell per TVar)",
			len(vars), allocs, len(vars))
	}
}

// TestPredictPathAllocFree pins the BFGTS begin-time scan — a linear walk
// of every worker slot — at zero allocations per call, including the
// running-slot churn around it.
func TestPredictPathAllocFree(t *testing.T) {
	t.Run("linear", func(t *testing.T) {
		sys := NewSystem(Config{Workers: 8, StaticTxs: 4, Scheduler: SchedBFGTS})
		m := sys.mgr.(*bfgtsManager)
		// Learned confidence so predictions have enemies to find, and a
		// few running transactions for the scan to walk.
		m.conf.Add(0, 1, 1.0)
		m.conf.Add(0, 2, 1.0)
		run := func() {
			sys.setRunning(3, 1)
			sys.setRunning(5, 2)
			sys.setRunning(6, 3)
			if enemy := m.predict(0, 0); enemy < 0 {
				t.Fatal("saturated confidence predicted no enemy")
			}
			sys.setRunning(3, core.NoTx)
			sys.setRunning(5, core.NoTx)
			sys.setRunning(6, core.NoTx)
			if m.predict(0, 0) >= 0 {
				t.Fatal("empty machine predicted an enemy")
			}
		}
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Fatalf("predict cycle allocates %.1f objects/op, want 0", allocs)
		}
	})
}
