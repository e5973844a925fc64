// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload, checks every output, and prints each metric by name
// with its unit; the last line of its standard output is one JSON object
// with the result. README.md describes the workloads and the metrics,
// and BENCHMARK.json at the repository root lists them with their
// bounds.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hash-cold --seed 2018 --seconds 10 --trace 0
//
// Every pass runs in a child process of its own, so no pass inherits
// another's in-memory caches (castan keeps built rainbow tables for the
// life of a process). With --trace 0 the command reports the end-to-end
// metrics of untraced passes; with --trace 1 it alternates untraced and
// traced passes, reports the per-layer metrics of the traced ones, and
// writes their trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"castan/internal/obs"
	"castan/internal/store"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: hash-cold, hash-warm, tree-symbex or campaign")
		seed    = flag.Uint64("seed", 2018, "seed of the analyses, the simulated cache hierarchy and the campaign")
		seconds = flag.Int("seconds", 10, "how long to measure; a pass that starts in time runs to its end")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced passes; 1: per-layer metrics of traced passes")
		work    = flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory: stores, reference outcomes, traces")
		// Child-process flags, set only by the parent.
		child      = flag.String("child", "", "run one child step, fill or pass, and write its record")
		storeDir   = flag.String("store", "", "child: artifact store directory")
		recordPath = flag.String("record", "", "child: where to write the record")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	sp, err := findSpec(*name)
	if err != nil {
		fatal(err)
	}
	if *child != "" {
		if err := runChild(sp, *seed, *child, *storeDir, *recordPath, *trace == 1, *work); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up (setup_s), then runs passes for about the
// measuring time.
func run(sp *spec, seed uint64, seconds time.Duration, traced bool, work string) (*result, error) {
	work, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	chk, err := newChecker(filepath.Join(work, "refs", fmt.Sprintf("%s-seed%d.json", sp.name, seed)))
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	step := 0
	// spawn runs one child step and checks its outputs against every
	// earlier pass and run.
	spawn := func(mode string, trace bool) (*record, error) {
		step++
		storeDir := ""
		switch sp.store {
		case warmStore:
			storeDir = filepath.Join(dir, "store")
		case coldStore:
			storeDir = filepath.Join(dir, fmt.Sprintf("cold-store-%d", step))
			defer os.RemoveAll(storeDir)
		}
		recPath := filepath.Join(dir, "record.json")
		traceArg := "0"
		if trace {
			traceArg = "1"
		}
		cmd := exec.Command(exe, "-child", mode, "-workload", sp.name, "-seed", strconv.FormatUint(seed, 10),
			"-store", storeDir, "-record", recPath, "-work", work, "-trace", traceArg)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// A child must not outlive a parent that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s step %d: %w", mode, step, err)
		}
		data, err := os.ReadFile(recPath)
		if err != nil {
			return nil, err
		}
		r := &record{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s step %d record: %w", mode, step, err)
		}
		for _, err := range chk.compare(r.Outcomes) {
			r.Failed++
			r.Incorrect++
			fmt.Printf("%s: INCORRECT %v\n", sp.name, err)
		}
		return r, nil
	}

	// Set-up is one untimed child step: the store fill of a warm
	// workload, or else one warm-up pass.
	mode := "pass"
	if sp.store == warmStore {
		mode = "fill"
	}
	start := time.Now()
	r, err := spawn(mode, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	incorrect := r.Incorrect
	setup := time.Since(start).Seconds()

	// A pass starts only while at least half of it, judged by the passes
	// so far, falls inside the measuring time. A run then measures about
	// `seconds` whatever the pass length, and a workload whose pass is
	// close to `seconds` always gets the same number of passes.
	var plain, withTrace []*record
	var steps []float64
	start = time.Now()
	for i := 0; ; i++ {
		enough := len(plain) > 0 && (!traced || len(withTrace) > 0)
		if enough && time.Since(start).Seconds()+median(steps)/2 > seconds.Seconds() {
			break
		}
		tr := traced && i%2 == 1
		stepStart := time.Now()
		r, err := spawn("pass", tr)
		if err != nil {
			return nil, err
		}
		steps = append(steps, time.Since(stepStart).Seconds())
		incorrect += r.Incorrect
		kind := "pass"
		if tr {
			kind = "traced pass"
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Printf("%s: %s %d: %.3f s, %.3f CPU s, slowest analysis %.3f s\n", sp.name, kind, i+1, r.Wall, r.CPU, r.MaxAnalyze)
	}
	if err := chk.save(); err != nil {
		return nil, fmt.Errorf("saving reference outcomes: %w", err)
	}

	counted := plain
	if traced {
		counted = withTrace
	}
	res := &result{Correct: incorrect == 0, Metrics: map[string]metric{}}
	for _, r := range counted {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	var rows []row
	if traced {
		rows = layerMetrics(plain, withTrace)
		if err := writeLayers(tracePath(work, sp.name, seed), rows, withTrace[len(withTrace)-1].Telemetry); err != nil {
			return nil, err
		}
	} else {
		rows = endToEnd(plain, setup)
	}
	fmt.Printf("%s, seed %d: %d timed passes (%d traced), set-up %.3f s\n", sp.name, seed, len(plain)+len(withTrace), len(withTrace), setup)
	for _, r := range rows {
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
		fmt.Printf("  %-30s %14.6g %-6s %s\n", r.name, r.value, r.unit, r.base)
	}
	return res, nil
}

// tracePath is where a traced run leaves its files, without extension.
func tracePath(work, name string, seed uint64) string {
	return filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d", name, seed))
}

// runChild is one child process: it fills the store (mode "fill") or runs
// one pass (mode "pass"), and writes what it measured to recordPath.
func runChild(sp *spec, seed uint64, mode, storeDir, recordPath string, traced bool, work string) error {
	b := &bench{spec: sp, seed: seed}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		b.store = st
	}
	var rec *obs.Recorder
	if traced {
		rec = obs.New(obs.NewWallClock())
	}
	p := newPass(rec, func(format string, args ...any) {
		fmt.Printf("%s: "+format+"\n", append([]any{sp.name}, args...)...)
	})
	var err error
	switch mode {
	case "fill":
		err = b.fill(p)
	case "pass":
		err = b.runPass(p)
		if err == nil && traced && p.campaign != nil {
			err = campaignReplaySize(p)
		}
	default:
		err = fmt.Errorf("unknown child step %q", mode)
	}
	if err != nil {
		return err
	}
	p.PeakRSS = peakRSS()
	if traced {
		p.Telemetry = rec.Snapshot()
		base := tracePath(work, sp.name, seed)
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return err
		}
		if err := rec.WriteChromeTraceFile(base + ".trace.json"); err != nil {
			return err
		}
	}
	data, err := json.Marshal(&p.record)
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath, data, 0o644)
}
