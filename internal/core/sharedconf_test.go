package core

import (
	"math"
	"sync"
	"testing"
)

func TestSharedConfClampAndAliasing(t *testing.T) {
	c := NewSharedConf(8, 4)
	if c.dim != 4 {
		t.Fatalf("dim = %d, want 4 (aliased)", c.dim)
	}
	c.Add(1, 2, 0.25)
	if got := c.Load(1, 2); math.Abs(got-0.25) > 1e-4 {
		t.Fatalf("Load(1,2) = %v, want 0.25", got)
	}
	// Aliased IDs land in the same cell: 5 % 4 == 1, 6 % 4 == 2.
	if got := c.Load(5, 6); math.Abs(got-0.25) > 1e-4 {
		t.Fatalf("aliased Load(5,6) = %v, want 0.25", got)
	}
	// Clamp high.
	for i := 0; i < 20; i++ {
		c.Add(1, 2, 0.3)
	}
	if got := c.Load(1, 2); got != 1 {
		t.Fatalf("clamped Load = %v, want 1", got)
	}
	// Clamp low.
	for i := 0; i < 20; i++ {
		c.Add(1, 2, -0.4)
	}
	if got := c.Load(1, 2); got != 0 {
		t.Fatalf("clamped Load = %v, want 0", got)
	}
	incs, decs := c.Updates()
	if incs != 21 || decs != 20 {
		t.Fatalf("Updates = (%d, %d), want (21, 20)", incs, decs)
	}
}

// TestSharedConfConcurrentAdds proves the CAS loop loses no updates: N
// workers each add 1/(2N) to one unclamped cell; the result must be
// exactly the fixed-point sum.
func TestSharedConfConcurrentAdds(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	// Each increment is one fixed-point ulp so the expected total is exact.
	ulp := 1.0 / (1 << 16)
	c := NewSharedConf(2, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(0, 1, ulp)
			}
		}()
	}
	wg.Wait()
	want := float64(workers*perWorker) / (1 << 16)
	if got := c.Load(0, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Load = %v, want %v (lost updates)", got, want)
	}
	if got := c.Mean(); math.Abs(got-want/4) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", got, want/4)
	}
}
