package main

import (
	"fmt"
	"os"
	"path/filepath"

	"castan/internal/castan"
	"castan/internal/experiments"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/store"
	"castan/internal/testbed"
	"castan/internal/workload"
)

// request is one castan.Analyze call of a pass.
type request struct {
	nf      string
	packets int
	states  int
}

// storeMode says which artifact store a pass's analyses consult.
type storeMode int

const (
	noStore   storeMode = iota // no store: every analysis derives everything
	coldStore                  // a fresh, empty store for every pass
	warmStore                  // one store filled during set-up
)

// spec is one named workload (README.md says why each was chosen).
type spec struct {
	name string
	// reqs are the analyses of one pass; a campaign workload has none.
	reqs     []request
	store    storeMode
	campaign bool
}

// Analysis sizes. The hash and campaign workloads use the
// cmd/benchmetrics baseline configuration (6 packets, 4000 states).
const (
	hashPackets  = 6
	hashStates   = 4000
	treePackets  = 10
	treeStates   = 4000
	trieAtPaper  = 30   // lpm-trie's Table 4 length
	replayFrames = 1024 // testbed packets measured per synthesized workload
)

func hashReqs() []request {
	var rs []request
	for _, name := range []string{"nat-ring", "lb-ring", "nat-chain", "lb-chain"} {
		rs = append(rs, request{name, hashPackets, hashStates})
	}
	return rs
}

func treeReqs() []request {
	var rs []request
	for _, name := range []string{"lb-ubtree", "nat-ubtree", "lb-rbtree", "nat-rbtree"} {
		rs = append(rs, request{name, treePackets, treeStates})
	}
	return append(rs, request{"lpm-trie", trieAtPaper, treeStates})
}

var specs = []spec{
	{name: "hash-cold", reqs: hashReqs(), store: coldStore},
	{name: "hash-warm", reqs: hashReqs(), store: warmStore},
	{name: "tree-symbex", reqs: treeReqs(), store: noStore},
	{name: "campaign", store: warmStore, campaign: true},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bench runs a workload's passes inside one child process.
type bench struct {
	spec  *spec
	seed  uint64
	store *store.Store // nil for a workload without a store
}

// fill derives every artifact of the workload's analyses into the
// store: the set-up of a warm workload. Its outputs are checked like any
// pass's, so a store fill that goes wrong shows.
func (b *bench) fill(p *pass) error {
	if b.spec.campaign {
		_, err := b.campaignAnalyses(b.newCampaign(nil), p)
		return err
	}
	b.analyses(p)
	return nil
}

// runPass runs and measures one pass of the workload.
func (b *bench) runPass(p *pass) error {
	p.begin()
	var err error
	if b.spec.campaign {
		err = b.campaignPass(p)
	} else {
		b.analyses(p)
	}
	p.end()
	if b.store != nil {
		p.StoreBytes = dirBytes(b.store.Dir())
	}
	return err
}

// analyses runs the workload's requests one after another, each with the
// analysis fan-out at its default width, and checks every output.
func (b *bench) analyses(p *pass) {
	for _, r := range b.spec.reqs {
		p.Attempted++
		var inst *nf.Instance
		var err error
		p.call("nf.build_s", "nf.New", func() { inst, err = nf.New(r.nf) })
		if err != nil {
			p.fail(r.nf, err)
			continue
		}
		var out *castan.Output
		p.analyzed(p.call("", "castan.Analyze "+r.nf, func() {
			out, err = castan.Analyze(inst, memsim.New(memsim.DefaultGeometry(), b.seed), castan.Config{
				NPackets:  r.packets,
				MaxStates: r.states,
				Seed:      b.seed,
				Store:     b.store,
				Obs:       p.rec,
			})
		}))
		if err != nil {
			p.fail(fmt.Sprintf("%s (%d packets, %d states)", r.nf, r.packets, r.states), err)
			continue
		}
		if !b.checkOutput(p, r.nf, out) {
			continue
		}
		var m *testbed.Measurement
		p.call("testbed.measure_s", "testbed.Measure "+r.nf, func() {
			m, err = testbed.Measure(r.nf, workload.FromFrames("CASTAN", out.Frames),
				testbed.Options{Seed: b.seed, MeasureCap: replayFrames})
		})
		if err != nil {
			p.wrong(r.nf, fmt.Errorf("replay on the testbed: %w", err))
			continue
		}
		p.add("testbed.packets", float64(len(out.Frames)+replayFrames))
		p.AdvCycles = append(p.AdvCycles, m.Cycles.Median())
	}
}

// checkOutput is the correctness gate every analysis output passes
// inside the pass: a report that passes Report.Check, and a replay on
// the interpreter (the independent oracle) that executes exactly the
// predicted number of instructions. The output is kept, so the parent
// can check that every pass and every run with this seed repeats it.
//
// An output that cannot be used at all (a report that fails its check,
// a replay that errors) is incorrect, and checkOutput reports it as not
// usable. A usable output that misses a gate (degraded, or replayed to
// another instruction count than predicted) counts as a failed
// operation, but its workload is still replayed and its havocs counted:
// both are real properties of what the analysis produced.
func (b *bench) checkOutput(p *pass, name string, out *castan.Output) (usable bool) {
	rep := out.Report()
	if err := rep.Check(name); err != nil {
		p.wrong(name, fmt.Errorf("report check: %w", err))
		return false
	}
	var instrs uint64
	var err error
	p.call("interp.validate_s", "castan.Validate "+name, func() { instrs, err = castan.Validate(name, out.Frames) })
	if err != nil {
		p.wrong(name, fmt.Errorf("validation replay: %w", err))
		return false
	}
	switch {
	case out.Degraded():
		p.fail(name, fmt.Errorf("degraded without a budget or fault plan: %+v", out.Degradations))
	case instrs != out.Instrs:
		p.fail(name, fmt.Errorf("validation replay executed %d instructions, prediction %d", instrs, out.Instrs))
	}
	rep.Telemetry = nil
	p.Outcomes[name] = outcome{Report: rep, Frames: out.Frames}
	p.Havocs += out.HavocsTotal
	p.Reconciled += out.HavocsReconciled
	return true
}

// The campaign's CASTAN length for every NF; the rest of its
// configuration is experiments.Config's default.
func (b *bench) newCampaign(rec *obs.Recorder) *experiments.Campaign {
	pk := map[string]int{}
	for _, name := range nf.Names {
		pk[name] = hashPackets
	}
	return experiments.NewCampaign(experiments.Config{
		Seed:          b.seed,
		CastanStates:  hashStates,
		CastanPackets: pk,
		Store:         b.store,
		Obs:           rec,
	})
}

// campaignAnalyses runs Campaign.Castan for every NF of Table 5, one
// after another, and checks each output. It returns the NFs whose
// output is usable.
func (b *bench) campaignAnalyses(c *experiments.Campaign, p *pass) ([]string, error) {
	var ok []string
	for _, name := range experiments.TableNFs {
		p.Attempted++
		var out *castan.Output
		var err error
		p.analyzed(p.call("experiments.analyze_s", "Campaign.Castan "+name, func() { out, err = c.Castan(name) }))
		if err != nil {
			p.fail(name, err)
			continue
		}
		if !b.checkOutput(p, name, out) {
			continue
		}
		ok = append(ok, name)
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("campaign: every analysis failed")
	}
	return ok, nil
}

// campaignPass renders Table 5 and every figure from one fresh
// Campaign: analyses first, then each NF's measurements, then the
// renders, which then only read the campaign's caches.
func (b *bench) campaignPass(p *pass) error {
	c := b.newCampaign(p.rec)
	p.campaign = c
	names, err := b.campaignAnalyses(c, p)
	if err != nil {
		return err
	}
	for _, name := range names {
		p.Attempted++
		var ms map[string]*testbed.Measurement
		p.call("testbed.measure_s", "Campaign.MeasureAll "+name, func() { ms, err = c.MeasureAll(name) })
		if err != nil {
			p.fail("measure "+name, err)
			continue
		}
		m, ok := ms["CASTAN"]
		if !ok {
			p.wrong("measure "+name, fmt.Errorf("no CASTAN measurement"))
			continue
		}
		p.AdvCycles = append(p.AdvCycles, m.Cycles.Median())
	}
	render := func(key string, f func() (string, error)) {
		p.Attempted++
		var text string
		var err error
		p.call("experiments.render_s", "Campaign."+key, func() { text, err = f() })
		if err != nil {
			p.fail(key, err)
			return
		}
		p.Outcomes[key] = outcome{Text: text}
	}
	render("Table5", func() (string, error) {
		t, err := c.Table5(nil)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	for _, id := range experiments.FigureIDs() {
		id := id
		render(fmt.Sprintf("Figure%d", id), func() (string, error) {
			f, err := c.Figure(id)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		})
	}
	return nil
}

// campaignReplaySize times the campaign's workload generation on its own
// and counts the packets its measurements replay (each workload once to
// warm up, then MeasureCap measured packets). It runs after a traced
// pass, outside the timed region, on that pass's cached analyses.
func campaignReplaySize(p *pass) error {
	c := p.campaign
	const measureCap = 8192 // experiments.Config's default MeasureCap
	for _, name := range experiments.TableNFs {
		var wls []*workload.Workload
		var err error
		p.call("workload.gen_s", "Campaign.Workloads "+name, func() { wls, err = c.Workloads(name) })
		if err != nil {
			return err
		}
		for _, wl := range wls {
			p.add("testbed.packets", float64(len(wl.Frames)+measureCap))
		}
	}
	return nil
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n)
}
