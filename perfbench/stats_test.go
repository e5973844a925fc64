package main

import (
	"errors"
	"math"
	"testing"

	"castan/internal/obs"
)

var errTest = errors.New("test failure")

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{6.31, 6.55, 6.84, 6.58, 6.97}, 6.43, 6.58, 6.905},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.in, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestRatioEmpty(t *testing.T) {
	if got := ratio(3, 4, 9); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(0, 0, 1); got != 1 {
		t.Errorf("ratio(0, 0, empty 1) = %v", got)
	}
	if got := ratio(0, 0, 0); got != 0 {
		t.Errorf("ratio(0, 0, empty 0) = %v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	// Buckets (0,100], (100,200], (200,400], overflow.
	h := obs.HistogramValue{Bounds: []uint64{100, 200, 400}, Counts: []uint64{10, 20, 10, 0}, Count: 40}
	// The 20th of 40 observations is the 10th of 20 in (100,200].
	if v, ok := histQuantile(h, 0.5, 10); !ok || !near(v, 150) {
		t.Errorf("p50 = %v %v, want 150", v, ok)
	}
	if _, ok := histQuantile(h, 0.9, 10); ok {
		t.Error("p90 of 40 samples has 4 beyond it, yet was reported")
	}
	if _, ok := histQuantile(obs.HistogramValue{Bounds: []uint64{1}, Counts: []uint64{0, 0}}, 0.5, 10); ok {
		t.Error("p50 of an empty histogram was reported")
	}
}

// A failed analysis counts as attempted and failed; an incorrect output
// counts as failed too.
func TestOkFracAccounting(t *testing.T) {
	p := newPass(nil, func(string, ...any) {})
	p.Attempted += 5
	p.fail("lpm-trie", errTest)
	p.wrong("nat-ring", errTest)
	p.AdvCycles = []float64{1000, 1200}
	rows := endToEnd([]*record{&p.record}, 1)
	got := map[string]float64{}
	for _, r := range rows {
		got[r.name] = r.value
	}
	if !near(got["ok_frac"], 3.0/5) {
		t.Errorf("ok_frac = %v, want 0.6", got["ok_frac"])
	}
	if p.Failed != 2 || p.Incorrect != 1 {
		t.Errorf("failed %d incorrect %d, want 2 and 1", p.Failed, p.Incorrect)
	}
	if got["adv_cycles_per_pkt"] != 1100 {
		t.Errorf("adv_cycles_per_pkt = %v, want 1100", got["adv_cycles_per_pkt"])
	}
	if got["havocs_reconciled_frac"] != 1 {
		t.Errorf("havocs_reconciled_frac with no havocs = %v, want 1", got["havocs_reconciled_frac"])
	}
}

// The per-layer ratios read the counters of each traced pass; with
// nothing attempted they are 0.
func TestLayerRatios(t *testing.T) {
	pass := func(c map[string]uint64) *record {
		return &record{Wall: 2, CPU: 3, Layer: map[string]float64{}, Telemetry: &obs.Metrics{Counters: c}}
	}
	traced := []*record{pass(map[string]uint64{
		"rainbow.invert_attempts": 8, "rainbow.bruteforce_calls": 2,
		"solver.memo_hits": 1, "solver.memo_misses": 3,
		"castan.store.hits": 3, "castan.store.misses": 1,
	})}
	empty := []*record{pass(nil)}
	plain := []*record{{Wall: 1.6}}
	for _, c := range []struct {
		traced []*record
		want   map[string]float64
	}{
		{traced, map[string]float64{
			"rainbow.invert_hit_frac": 0.75, "solver.memo_hit_frac": 0.25, "castan.store.hit_frac": 0.75,
			"parallel.busy_cores": 1.5, "trace.overhead_frac": 0.25,
		}},
		{empty, map[string]float64{"rainbow.invert_hit_frac": 0, "solver.memo_hit_frac": 0, "castan.store.hit_frac": 0}},
	} {
		got := map[string]float64{}
		for _, r := range layerMetrics(plain, c.traced) {
			got[r.name] = r.value
		}
		for k, want := range c.want {
			if !near(got[k], want) {
				t.Errorf("%s = %v, want %v", k, got[k], want)
			}
		}
	}
}
