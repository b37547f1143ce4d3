package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/workload"
	servev1 "rooftune/serve/v1"
)

// ladderResult holds the per-layer quantities the traced run derives
// from outcomes rather than from span durations.
type ladderResult struct {
	campaigns             int
	hitComponents         []float64 // ns: parse + options + New + Fingerprint
	planNodes, planCases  int
	runplanWall, nodeBusy time.Duration
	critical              []float64 // ns per campaign
	configs, pruned       int
	samples, innerStops   int
	steps                 int
	stepNs                map[string][]float64
	replans               int // campaigns whose replayed plan differs from Session.Run's
}

// stepBatch is how many simulated kernel steps one sim.step span times.
const stepBatch = 1000

// params reproduces the workload parameters rooftune.New resolves for a
// served campaign (the session's defaults), so the ladder can plan and
// run the same graph through the internal layers. ladder checks the
// replay against Session.Run and reports any divergence.
func params(c servev1.Campaign) workload.Params {
	seed := c.Seed
	if seed == 0 {
		seed = 1021
	}
	return workload.Params{
		Seed:          seed,
		Space:         core.UnionDGEMMSpace(),
		TriadLo:       3 * units.KiB,
		TriadHi:       768 * units.MiB,
		TriadLevels:   c.TriadLevels,
		AssumedLLC:    32 * units.MiB,
		SpMVN:         1 << 18,
		SpMVNNZPerRow: 16,
		StencilNX:     2048,
		StencilNY:     2048,
	}
}

func modelOf(cfg bench.Config) string {
	switch cfg.(type) {
	case bench.DGEMMConfig:
		return "simblas"
	case bench.TriadConfig:
		return "simstream"
	case bench.SpMVConfig:
		return "simspmv"
	case bench.StencilConfig:
		return "simstencil"
	}
	return "sim"
}

// ladder walks every fixed-list campaign down the cost ladder, timing
// each layer's public entry point from outside: wire parse, option
// resolution, New, Fingerprint, workload planning, RunPlan with its
// nodes and evaluations, simulated kernel steps, Session.Run and Result
// encoding. Chained campaigns are also posted to the coordinator, whose
// node dispatches the worker taps record.
func ladder(ctx context.Context, e *env, tr *tracer) (*ladderResult, error) {
	lr := &ladderResult{stepNs: map[string][]float64{}}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, fc := range e.fixed {
		if err := ladderOne(ctx, fc, tr, lr); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", fc.label, err)
		}
		if !fc.c.Chain {
			continue
		}
		trace := tr.newTrace()
		s := tr.begin("dist.campaign", trace, 0)
		tr.bind(fc.body, trace, s.ID)
		_, _, err := tune(ctx, cl, e.fleet.coord.url, fc.body)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("ladder: post %s to the coordinator: %w", fc.label, err)
		}
	}
	return lr, nil
}

func ladderOne(ctx context.Context, fc camp, tr *tracer, lr *ladderResult) error {
	lr.campaigns++
	trace := tr.newTrace()
	root := tr.begin("ladder.campaign", trace, 0)
	defer tr.end(root)
	step := func(name string, fn func() error) (time.Duration, error) {
		s := tr.begin(name, trace, root.ID)
		err := fn()
		tr.end(s)
		return s.dur(), err
	}

	var (
		c    servev1.Campaign
		opts []rooftune.Option
		sess *rooftune.Session
		hit  time.Duration
	)
	for _, st := range []struct {
		name string
		fn   func() (err error)
	}{
		{"campaign.parse", func() (err error) { c, err = servev1.ParseCampaign(bytes.NewReader(fc.body)); return }},
		{"campaign.options", func() (err error) { opts, err = campaign.Options(c); return }},
		{"session.new", func() (err error) { sess, err = rooftune.New(opts...); return }},
		{"session.fingerprint", func() (err error) { _, err = sess.Fingerprint(); return }},
	} {
		d, err := step(st.name, st.fn)
		if err != nil {
			return err
		}
		hit += d
	}
	lr.hitComponents = append(lr.hitComponents, float64(hit))

	sys, err := hw.Get(c.System)
	if err != nil {
		return err
	}
	names := c.Workloads
	if len(names) == 0 {
		names = []string{"dgemm", "triad"}
	}
	var nodes []sweep.Node
	if _, err := step("workload.plan", func() error {
		for _, name := range names {
			w, err := workload.Get(name)
			if err != nil {
				return err
			}
			plan, err := w.Plan(workload.Target{Sys: &sys}, params(c))
			if err != nil {
				return err
			}
			for _, pl := range plan.Sweeps {
				n := sweep.Node{ID: pl.ID, SeedFrom: pl.SeedFrom, Spec: pl.Spec}
				if !c.Chain {
					n.SeedFrom = ""
				}
				nodes = append(nodes, n)
				lr.planCases += len(pl.Spec.Cases)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	lr.planNodes += len(nodes)

	outs, err := runPlan(ctx, nodes, tr, trace, root.ID, lr)
	if err != nil {
		return err
	}
	var replayed time.Duration
	for _, o := range outs {
		res := o.Result
		replayed += res.Elapsed
		lr.configs += len(res.All)
		lr.pruned += res.PrunedCount
		lr.samples += res.TotalSamples
		for _, out := range res.All {
			lr.innerStops += out.InnerStops
			lr.steps += out.TotalSamples + len(out.Invocations) // measured + warm-up
		}
	}

	for _, n := range nodes {
		kase := n.Spec.Cases[0]
		model := modelOf(kase.Config())
		inst, err := kase.NewInvocation(0)
		if err != nil {
			return err
		}
		inst.Warmup()
		s := tr.begin(model+".step", trace, root.ID)
		for i := 0; i < stepBatch; i++ {
			inst.Step()
		}
		tr.end(s)
		inst.Close()
		lr.stepNs[model] = append(lr.stepNs[model], float64(s.dur())/stepBatch)
	}

	var res *rooftune.Result
	if _, err := step("session.run", func() (err error) { res, err = sess.Run(ctx); return }); err != nil {
		return err
	}
	if _, err := step("session.result_encode", func() error { _, err := json.Marshal(res); return err }); err != nil {
		return err
	}
	if res.SearchTime != replayed {
		fmt.Printf("ladder: %s: replayed plan searched %v, Session.Run %v; the per-layer sweep figures describe a different plan\n",
			fc.label, replayed, res.SearchTime)
		lr.replans++
	}
	return nil
}

// runPlan executes the planned graph through sweep.Runner as a session
// run does, recording one span per node and one per evaluated
// configuration from the runner's hooks.
func runPlan(ctx context.Context, nodes []sweep.Node, tr *tracer, trace, parent int64, lr *ladderResult) ([]sweep.Outcome, error) {
	type nodeState struct {
		id          int64
		start, last time.Time
	}
	var mu sync.Mutex
	state := map[string]*nodeState{}
	durs := map[string]time.Duration{} // by node ID
	idOf := map[string]string{}
	for _, n := range nodes {
		idOf[n.Spec.Name] = n.ID
	}
	planID := tr.newID()
	runner := &sweep.Runner{
		Budget:     bench.DefaultBudget().WithFlags(true, true, true),
		Order:      core.OrderForward,
		CaseShards: 1,
		Hooks: sweep.Hooks{
			SweepStarted: func(name string, _ int) {
				now := time.Now()
				mu.Lock()
				state[name] = &nodeState{id: tr.newID(), start: now, last: now}
				mu.Unlock()
			},
			CaseEvaluated: func(name string, _ *bench.Outcome) {
				now := time.Now()
				mu.Lock()
				st := state[name]
				from := st.last
				st.last = now
				mu.Unlock()
				tr.record("evaluate", trace, st.id, from, now)
			},
			SweepWon: func(o *sweep.Outcome) {
				now := time.Now()
				mu.Lock()
				st := state[o.Name]
				durs[idOf[o.Name]] = now.Sub(st.start)
				mu.Unlock()
				tr.recordID(st.id, "sweep.node", trace, planID, st.start, now)
			},
		},
	}
	t0 := time.Now()
	outs, err := runner.RunPlan(ctx, nodes)
	t1 := time.Now()
	tr.recordID(planID, "sweep.runplan", trace, parent, t0, t1)
	if err != nil {
		return nil, err
	}
	lr.runplanWall += t1.Sub(t0)
	// The critical path is the longest chain of node times along the
	// plan's seed edges.
	var longest time.Duration
	for _, n := range nodes {
		var chain time.Duration
		for id := n.ID; id != ""; {
			chain += durs[id]
			next := ""
			for _, m := range nodes {
				if m.ID == id {
					next = m.SeedFrom
				}
			}
			id = next
		}
		lr.nodeBusy += durs[n.ID]
		longest = max(longest, chain)
	}
	lr.critical = append(lr.critical, float64(longest))
	return outs, nil
}

// maxReplays bounds how many recorded node dispatches are replayed in
// process to time Session.RunNode.
const maxReplays = 240

// replayNodes re-resolves and runs, in process, an evenly spaced sample
// of the node specs the workers received: the worker-side resolution
// (parse, Options, New, Fingerprint) and Session.RunNode itself.
func replayNodes(ctx context.Context, f *fleet, tr *tracer) (specBytes, outcomeBytes []float64, err error) {
	var recs []nodeRecord
	for _, t := range f.taps {
		t.mu.Lock()
		recs = append(recs, t.nodes...)
		specBytes = append(specBytes, t.specBytes...)
		outcomeBytes = append(outcomeBytes, t.outcomeBytes...)
		t.mu.Unlock()
	}
	stride := max(1, len(recs)/maxReplays)
	for i := 0; i < len(recs); i += stride {
		rec := recs[i]
		trace, root := tr.lookup(rec.campaign)
		s := tr.begin("dist.worker_resolve", trace, root)
		c, err := servev1.ParseCampaign(bytes.NewReader(rec.campaign))
		if err != nil {
			return nil, nil, err
		}
		opts, err := campaign.Options(c)
		if err != nil {
			return nil, nil, err
		}
		sess, err := rooftune.New(opts...)
		if err != nil {
			return nil, nil, err
		}
		if _, err := sess.Fingerprint(); err != nil {
			return nil, nil, err
		}
		tr.end(s)
		s = tr.begin("dist.node_exec", trace, root)
		_, err = sess.RunNode(ctx, rec.nodeID, rec.seedValue, nil)
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("replay node %s: %w", rec.nodeID, err)
		}
	}
	return specBytes, outcomeBytes, nil
}
