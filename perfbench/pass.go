package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"castan/internal/castan"
	"castan/internal/experiments"
	"castan/internal/obs"
)

// record is what one pass reports to the parent process: what the
// pass cost, what it produced, and (traced) its telemetry.
type record struct {
	// Cost of the pass, from the process's own accounting.
	Wall       float64 `json:"wall_s"`
	CPU        float64 `json:"cpu_s"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	PeakRSS    float64 `json:"peak_rss_bytes"`
	// MaxAnalyze is the slowest single analysis, in seconds.
	MaxAnalyze float64 `json:"max_analyze_s"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Incorrect int `json:"incorrect"`
	// AdvCycles holds, per checked analysis, the testbed median cycles
	// per packet of the synthesized workload.
	AdvCycles  []float64 `json:"adv_cycles"`
	Havocs     int       `json:"havocs"`
	Reconciled int       `json:"havocs_reconciled"`
	StoreBytes float64   `json:"store_bytes"`
	// Layer sums the time spent in each layer's calls ("_s" keys) and
	// the packets the testbed replayed.
	Layer map[string]float64 `json:"layer"`
	// Outcomes are the pass's outputs, which every other pass and every
	// run with the same seed must repeat exactly.
	Outcomes  map[string]outcome `json:"outcomes"`
	Telemetry *obs.Metrics       `json:"telemetry,omitempty"`
}

// outcome is one analysis output (report and frames) or one render.
type outcome struct {
	Report *castan.Report `json:"report,omitempty"`
	Frames [][]byte       `json:"frames,omitempty"`
	Text   string         `json:"text,omitempty"`
}

// pass is one pass being run.
type pass struct {
	record
	rec      *obs.Recorder // non-nil on a traced pass
	campaign *experiments.Campaign
	log      func(format string, args ...any)
	span     *obs.Span
	before   sample
}

func newPass(rec *obs.Recorder, log func(format string, args ...any)) *pass {
	return &pass{
		record: record{Layer: map[string]float64{}, Outcomes: map[string]outcome{}},
		rec:    rec,
		log:    log,
	}
}

// sample is a reading of the process's clocks and allocation counters.
type sample struct {
	wall              time.Time
	cpu               float64
	allocBytes, gcCPU float64
}

var sampleNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func takeSample() sample {
	ms := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return sample{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocBytes: float64(ms[0].Value.Uint64()),
		gcCPU:      ms[1].Value.Float64(),
	}
}

// processCPU is the user plus system CPU time of the process so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSS is the process's peak resident set, in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func (p *pass) begin() {
	p.span = p.rec.Span("perfbench.pass")
	p.before = takeSample()
}

func (p *pass) end() {
	after := takeSample()
	p.span.End()
	p.Wall = after.wall.Sub(p.before.wall).Seconds()
	p.CPU = after.cpu - p.before.cpu
	p.AllocBytes = after.allocBytes - p.before.allocBytes
	p.GCCPU = after.gcCPU - p.before.gcCPU
}

// call times one call into a layer. The time adds to the layer's total
// (unless layer is ""), and a traced pass records it as a harness span.
func (p *pass) call(layer, span string, f func()) float64 {
	sp := p.rec.Span("perfbench." + span)
	start := time.Now()
	f()
	d := time.Since(start).Seconds()
	sp.End()
	if layer != "" {
		p.add(layer, d)
	}
	return d
}

func (p *pass) add(key string, v float64) { p.Layer[key] += v }

func (p *pass) analyzed(seconds float64) {
	if seconds > p.MaxAnalyze {
		p.MaxAnalyze = seconds
	}
}

// fail counts an operation that returned an error.
func (p *pass) fail(what string, err error) {
	p.Failed++
	p.log("FAILED %s: %v", what, err)
}

// wrong counts an operation whose output failed a correctness check.
func (p *pass) wrong(what string, err error) {
	p.Failed++
	p.Incorrect++
	p.log("INCORRECT %s: %v", what, err)
}
