package bloofi

import (
	"fmt"
	"testing"
)

// benchCapacities mirrors the simulated-core counts of the scaling
// experiments: at 64 the tree is 3 levels, at 1024 it is 4-5, so the
// probe-vs-linear gap widens with each step.
var benchCapacities = []int{64, 256, 1024}

// fillLowOverlap occupies every slot with mostly-distinct keys plus a
// small shared tail, the regime the directory is built for: most probes
// prune whole subtrees, a few descend to real candidates.
func fillLowOverlap(set func(slot int, key uint64), capacity int) {
	for slot := 0; slot < capacity; slot++ {
		key := uint64(100 + slot)
		if slot%16 == 0 {
			key = uint64(slot % 4) // shared hot keys
		}
		set(slot, key)
	}
}

func BenchmarkTreeInsertRemove(b *testing.B) {
	for _, capacity := range benchCapacities {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			tr := New(Config{Capacity: capacity})
			fillLowOverlap(tr.Set, capacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % capacity
				tr.Remove(slot)
				tr.Insert(slot, uint64(i))
			}
		})
	}
}

func BenchmarkTreeProbe(b *testing.B) {
	for _, capacity := range benchCapacities {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			tr := New(Config{Capacity: capacity})
			fillLowOverlap(tr.Set, capacity)
			probe := NewProbe(tr)
			keys := []uint64{0, 2, 7} // two hot keys present, one absent
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe.Reset(keys)
				for {
					if _, ok := probe.Next(); !ok {
						break
					}
				}
			}
		})
	}
}
