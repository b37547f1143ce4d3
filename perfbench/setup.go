package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"rooftune"
	servev1 "rooftune/serve/v1"
)

// env is one set-up: the running fleet, the fixed campaign list, the
// serve cache's warm-up bytes, and the fixed list's in-process results
// under the session default and under the fixed-sample reference.
type env struct {
	fleet    *fleet
	fixed    []camp
	warm     [][]byte
	first    [][]byte
	firstRes []*rooftune.Result
	refRes   []*rooftune.Result
	// mismatches counts set-up outputs that failed their checks.
	mismatches int
	checked    int
}

// referenceBudget is bench.DefaultBudget(), the paper's fixed-sample
// "Default" technique: every optimisation switched off.
func referenceBudget() *servev1.BudgetSpec {
	off := false
	return &servev1.BudgetSpec{Confidence: &off, InnerBound: &off, OuterBound: &off}
}

// setup starts the fleet, fills the serve cache with the fixed list
// (the warm-up misses), runs the fixed list in process, and runs its
// fixed-sample reference. It fails only when the system errors; output
// mismatches are counted in env.mismatches.
func setup(ctx context.Context, seed uint64, tr *tracer, tapped bool) (*env, error) {
	f, err := startFleet(tr, tapped)
	if err != nil {
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	e := &env{fleet: f, fixed: fixedList(seed)}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, c := range e.fixed {
		data, got, err := tune(ctx, cl, f.serve.url, c.body)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm %s: %w", c.label, err)
		}
		if got != "miss" {
			fmt.Printf("setup: warm-up of %s answered %q, want miss\n", c.label, got)
			e.mismatches++
		}
		e.warm = append(e.warm, data)
	}
	for i, c := range e.fixed {
		res, data, err := runLocal(ctx, c.c)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("run %s: %w", c.label, err)
		}
		e.firstRes = append(e.firstRes, res)
		e.first = append(e.first, data)
		// A cached Result must be the bytes a local run produces.
		e.checked++
		if !bytes.Equal(data, e.warm[i]) {
			fmt.Printf("setup: served %s differs from its in-process run\n", c.label)
			e.mismatches++
		}
		ref := c.c
		ref.Budget = referenceBudget()
		res, _, err = runLocal(ctx, ref)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("reference %s: %w", c.label, err)
		}
		e.refRes = append(e.refRes, res)
	}
	return e, nil
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// setupMedian sets up setupRepeats times, sampling the host speed
// before each, keeps the last set-up and returns every set-up's
// duration. All set-ups must produce the same fixed-list bytes.
func setupMedian(ctx context.Context, seed uint64, tr *tracer, host *hostSpeed) (*env, []float64, error) {
	var (
		e     *env
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		host.sample()
		t0 := time.Now()
		next, err := setup(ctx, seed, tr, false)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if e != nil {
			e.fleet.close()
			for j := range e.first {
				next.checked++
				if !bytes.Equal(e.first[j], next.first[j]) {
					fmt.Printf("setup: %s is not reproducible across set-ups\n", next.fixed[j].label)
					next.mismatches++
				}
			}
			next.mismatches += e.mismatches
			next.checked += e.checked
		}
		e = next
	}
	return e, times, nil
}

// secondPass re-runs the fixed list in process and counts campaigns
// whose bytes differ from the first pass.
func (e *env) secondPass(ctx context.Context) (checked, bad int) {
	for i, c := range e.fixed {
		checked++
		_, data, err := runLocal(ctx, c.c)
		if err != nil || !bytes.Equal(data, e.first[i]) {
			fmt.Printf("tune-local: second pass of %s differs from the first (err=%v)\n", c.label, err)
			bad++
		}
	}
	return checked, bad
}

// exact adds the search-cost metrics of the fixed list: exact given the
// seed, whatever the run length.
func (e *env) exact(rep *report) {
	var def, ref time.Duration
	worst, where := 0.0, ""
	for i, res := range e.firstRes {
		r := e.refRes[i]
		def += res.SearchTime
		ref += r.SearchTime
		check := func(what string, v, want float64) {
			if want == 0 {
				return
			}
			if d := math.Abs(v-want) / want * 100; d > worst {
				worst, where = d, fmt.Sprintf("%s %s", e.fixed[i].label, what)
			}
		}
		for j, c := range res.Compute {
			if j < len(r.Compute) {
				check(fmt.Sprintf("%s %d socket(s)", c.Label, c.Sockets), float64(c.Flops), float64(r.Compute[j].Flops))
			}
		}
		for j, m := range res.Memory {
			if j < len(r.Memory) {
				check(fmt.Sprintf("%s %d socket(s)", m.Region, m.Sockets), float64(m.Bandwidth), float64(r.Memory[j].Bandwidth))
			}
		}
	}
	n := len(e.firstRes)
	rep.add("search_virtual_s", def.Seconds(), "s", n, "virtual seconds, session default budget")
	rep.add("search_speedup_x", ref.Seconds()/def.Seconds(), "x", n, fmt.Sprintf("fixed-sample reference %.1f virtual s", ref.Seconds()))
	rep.add("ceiling_err_max_pct", worst, "%", n, "worst at "+where)
}
