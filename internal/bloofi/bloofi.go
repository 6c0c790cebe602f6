// Package bloofi implements a Bloofi-style hierarchical signature
// directory (Crainiceanu & Lemire, "Bloofi: Multidimensional Bloom
// Filters") over the running-transaction set: a fixed-capacity B-ary tree
// whose leaves are per-slot Bloom filters and whose interior nodes hold
// the bitwise OR of their children. A membership probe descends only the
// subtrees whose aggregate filter intersects the query, turning the
// begin-time "scan every running transaction" walk of the paper's
// Example 1 into an O(log n) descent when conflicts are sparse.
//
// The directory indexes *identity keys*, not full read/write-set
// signatures: each occupied leaf holds exactly one key naming the
// transaction running on that slot (the folded static ID for the
// simulator's confidence table, the dynamic ID for PTS's per-dTxID
// graph). A begin-time probe first computes the exact suspect set — the
// keys whose learned confidence against the beginning transaction clears
// the threshold — and then asks the tree which occupied slots hold any
// suspect key. Because a leaf surely contains its own key and interior
// aggregates are pure ORs, the probe has no false negatives; interior
// false positives only cost extra descent, and the leaf level compares
// keys exactly, so the candidate slots returned are precisely the slots
// a linear scan would have matched — in the same ascending-slot order.
// That is what lets the simulator keep its results byte-identical to the
// linear scan while the host does sub-linear work.
//
// Tree is single-goroutine and deterministic (plain bloom.Filter nodes,
// pooled in a preallocated arena with a free list); insert,
// remove-with-repair and probe are 0 allocs/op (//bfgts:allocfree, gated
// by TestBloofiTreeAllocFree). Only the simulator uses it: the live STM
// does one insert and one clear per transaction, the update-heavy regime
// Bloofi is not built for, and its plain walk of the worker slots was
// measured faster than a lock-free tree at every worker count tried.
package bloofi

import "repro/internal/bloom"

// Config sizes a directory.
type Config struct {
	// Capacity is the number of leaf slots (CPUs in the simulator,
	// worker slots in the live STM). Slots are addressed [0, Capacity).
	Capacity int
	// Branch is the tree fan-out (default 8).
	Branch int
	// Bits sizes each node's filter (default 256). Directory filters
	// index identity keys — a handful of distinct values per subtree —
	// so they can be far smaller than read/write-set signatures.
	Bits int
	// Hashes is the hash-function count per filter (default
	// bloom.DefaultHashes).
	Hashes int
}

func (c Config) withDefaults() Config {
	if c.Branch <= 1 {
		c.Branch = 8
	}
	if c.Bits == 0 {
		c.Bits = 256
	}
	if c.Hashes == 0 {
		c.Hashes = bloom.DefaultHashes
	}
	return c
}

// geometry computes the level sizes of a capacity-leaf Branch-ary tree:
// spans[l] is the number of leaf slots covered by one level-l node
// (Branch^l) and counts[l] the number of positions at level l, with
// level 0 the leaves and the last level a single root.
func (c Config) geometry() (spans, counts []int) {
	span, n := 1, c.Capacity
	for {
		spans = append(spans, span)
		counts = append(counts, n)
		if n == 1 {
			return spans, counts
		}
		span *= c.Branch
		n = (n + c.Branch - 1) / c.Branch
	}
}
