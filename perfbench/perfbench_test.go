package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
)

// heldOutSeed is a seed no workload was tuned on.
const heldOutSeed = 7

// TestMetricTablesMatch pins the metric and workload tables to
// BENCHMARK.json, which is what the benchmark promises to print.
func TestMetricTablesMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, perfbench %v", names, ours)
	}
	for _, tc := range []struct {
		kind string
		spec []named
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []named
		for _, d := range tc.defs {
			want = append(want, named{d.name, d.unit})
		}
		if !reflect.DeepEqual(tc.spec, want) {
			t.Errorf("%s: BENCHMARK.json %v, perfbench %v", tc.kind, tc.spec, want)
		}
	}
}

// TestWorkloadsTiny runs every workload, timed and traced, at a tiny size
// on a held-out seed. It fails if a workload panics, overruns, counts a
// failed operation, or leaves a required metric missing, non-finite or
// without a unit.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(heldOutSeed, 0, traced, true)
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				w.run(r)
			}()
			select {
			case p := <-done:
				if p != nil {
					t.Fatalf("%s traced=%v panicked: %v", w.name, traced, p)
				}
			case <-time.After(2 * time.Minute):
				t.Fatalf("%s traced=%v overran two minutes", w.name, traced)
			}
			out := r.result()
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, out.Correct, out.Failed, out.Attempted)
			}
			for _, d := range r.required() {
				m, ok := out.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.name, m, ok)
				}
			}
			if len(out.Metrics) != len(r.required()) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(r.required()))
			}
			if _, err := json.Marshal(out); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
		}
	}
}

// TestFig4aMatchesHarnessAndPin checks that fig4a-matrix drives the
// program the repository pins: at seed 1 its table equals the fig4a
// report of the harness and the fig4a rows of BENCH_6.json.
func TestFig4aMatchesHarnessAndPin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 4a matrix twice")
	}
	r := newRun(1, 0, false, false)
	cells := fig4aCells(0.1)
	got := fig4aTable(cells, runSimRep(r, cells, false).digests)
	if r.failed != 0 {
		t.Fatalf("%d failed cells", r.failed)
	}

	exp, _ := harness.ExperimentByID("fig4a")
	cfg := harness.DefaultConfig()
	cfg.Scale, cfg.Workers = 0.1, 1
	if want := exp.Run(harness.NewRunner(cfg)).Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("table differs from the harness:\n got %v\nwant %v", got, want)
	}

	raw, err := os.ReadFile("../BENCH_6.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Config struct {
			Seed  uint64
			Scale float64
		}
		Reports []struct {
			ID   string
			Rows [][]string
		}
	}
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	if pin.Config.Seed != 1 || pin.Config.Scale != 0.1 {
		t.Fatalf("BENCH_6.json pins seed %d scale %v", pin.Config.Seed, pin.Config.Scale)
	}
	for _, rep := range pin.Reports {
		if rep.ID == "fig4a" {
			if !reflect.DeepEqual(got, rep.Rows) {
				t.Errorf("table differs from BENCH_6.json:\n got %v\nwant %v", got, rep.Rows)
			}
			return
		}
	}
	t.Error("BENCH_6.json has no fig4a report")
}
