package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// valueCase is a fake benchmark with a fixed metric value.
type valueCase struct {
	id    int
	value float64 // metric in base units
	clock *vclock.Virtual
	cost  time.Duration
}

func (v *valueCase) Key() string          { return fmt.Sprintf("case-%d", v.id) }
func (v *valueCase) Config() bench.Config { return nil }
func (v *valueCase) Describe() string     { return v.Key() }
func (v *valueCase) Metric() bench.Metric {
	return bench.MetricFlops
}

func (v *valueCase) NewInvocation(inv int) (bench.Instance, error) {
	return &valueInstance{c: v}, nil
}

type valueInstance struct{ c *valueCase }

func (i *valueInstance) Warmup() {}
func (i *valueInstance) Step() time.Duration {
	i.c.clock.Advance(i.c.cost)
	return i.c.cost
}
func (i *valueInstance) Work() float64 {
	return i.c.value * i.c.cost.Seconds()
}
func (i *valueInstance) Close() {}

func makeCases(clock *vclock.Virtual, values []float64) []bench.Case {
	cases := make([]bench.Case, len(values))
	for i, v := range values {
		cases[i] = &valueCase{id: i, value: v, clock: clock, cost: time.Millisecond}
	}
	return cases
}

func quickBudget() bench.Budget {
	return bench.Budget{Invocations: 2, MaxIterations: 4,
		MaxTime: time.Hour, ErrorInverse: 100, CILevel: 0.99}
}

func TestTunerFindsMaximum(t *testing.T) {
	clock := vclock.NewVirtual()
	values := []float64{3, 9, 1, 7, 9.5, 2}
	tuner := NewTuner(clock, quickBudget(), OrderForward)
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Key != "case-4" {
		t.Fatalf("best = %s", res.Best.Key)
	}
	if math.Abs(res.BestValue()-9.5) > 1e-9 {
		t.Fatalf("best value = %v", res.BestValue())
	}
	if len(res.All) != 6 {
		t.Fatalf("evaluated %d of 6", len(res.All))
	}
}

func TestTunerOrderings(t *testing.T) {
	clock := vclock.NewVirtual()
	values := []float64{1, 2, 3, 4}
	var visited []string
	tuner := NewTuner(clock, quickBudget(), OrderReverse)
	tuner.OnOutcome = func(o *bench.Outcome) { visited = append(visited, o.Key) }
	if _, err := tuner.Run(context.Background(), makeCases(clock, values)); err != nil {
		t.Fatal(err)
	}
	if visited[0] != "case-3" || visited[3] != "case-0" {
		t.Fatalf("reverse order visited %v", visited)
	}

	visited = nil
	tuner = NewTuner(clock, quickBudget(), OrderRandom)
	tuner.Seed = 3
	tuner.OnOutcome = func(o *bench.Outcome) { visited = append(visited, o.Key) }
	if _, err := tuner.Run(context.Background(), makeCases(clock, values)); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range visited {
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random order must visit each case once: %v", visited)
	}

	// Random order is deterministic per shuffle seed.
	var again []string
	tuner2 := NewTuner(clock, quickBudget(), OrderRandom)
	tuner2.Seed = 3
	tuner2.OnOutcome = func(o *bench.Outcome) { again = append(again, o.Key) }
	if _, err := tuner2.Run(context.Background(), makeCases(clock, values)); err != nil {
		t.Fatal(err)
	}
	for i := range visited {
		if visited[i] != again[i] {
			t.Fatal("random order not reproducible for the same seed")
		}
	}
}

func TestTunerOrderIndependentOptimum(t *testing.T) {
	values := []float64{5, 8, 2, 10, 7, 1, 9}
	for _, order := range []Order{OrderForward, OrderReverse, OrderRandom} {
		clock := vclock.NewVirtual()
		tuner := NewTuner(clock, quickBudget(), order)
		res, err := tuner.Run(context.Background(), makeCases(clock, values))
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Key != "case-3" {
			t.Fatalf("%v order found %s", order, res.Best.Key)
		}
	}
}

func TestTunerPruningWithOuterBound(t *testing.T) {
	clock := vclock.NewVirtual()
	// Strong first case; the rest are hopeless and must be outer-pruned.
	values := []float64{100, 10, 20, 30}
	b := quickBudget()
	b.Invocations = 6
	b.UseOuterBound = true
	tuner := NewTuner(clock, b, OrderForward)
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCount != 3 {
		t.Fatalf("pruned %d of 3 hopeless cases", res.PrunedCount)
	}
	if res.Best.Key != "case-0" {
		t.Fatalf("best = %s", res.Best.Key)
	}
	// Pruned cases must have stopped after exactly 2 invocations.
	for _, o := range res.All[1:] {
		if len(o.Invocations) != 2 {
			t.Fatalf("pruned case ran %d invocations", len(o.Invocations))
		}
	}
}

func TestTunerSamplesAndElapsed(t *testing.T) {
	clock := vclock.NewVirtual()
	values := []float64{1, 2}
	tuner := NewTuner(clock, quickBudget(), OrderForward)
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSamples != 2*2*4 {
		t.Fatalf("TotalSamples = %d", res.TotalSamples)
	}
	if res.Elapsed != clock.Now() {
		t.Fatalf("Elapsed %v != clock %v", res.Elapsed, clock.Now())
	}
}

// runOrdered is a helper running one tuner over fresh cases.
func runOrdered(t *testing.T, b bench.Budget, order Order, shards int, incumbent float64, values []float64) *Result {
	t.Helper()
	clock := vclock.NewVirtual()
	tuner := NewTuner(clock, b, order)
	tuner.Shards = shards
	tuner.Incumbent = incumbent
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTunerShardedMatchesSerial(t *testing.T) {
	values := []float64{5, 8, 2, 10, 7, 1, 9, 9.5, 3, 6, 4, 8.5}
	budgets := map[string]bench.Budget{
		"plain": quickBudget(),
		"outer": func() bench.Budget {
			b := quickBudget()
			b.Invocations = 4
			b.UseOuterBound = true
			return b
		}(),
	}
	for name, b := range budgets {
		for _, order := range []Order{OrderForward, OrderReverse, OrderRandom} {
			serial := runOrdered(t, b, order, 1, 0, values)
			for _, shards := range []int{2, 3, 4, 16} {
				res := runOrdered(t, b, order, shards, 0, values)
				if res.Best.Key != serial.Best.Key || res.Best.Mean != serial.Best.Mean {
					t.Fatalf("%s/%v/shards=%d: winner %s (%v), serial %s (%v)",
						name, order, shards, res.Best.Key, res.Best.Mean,
						serial.Best.Key, serial.Best.Mean)
				}
				// Result.All must be reassembled in traversal order.
				for i := range res.All {
					if res.All[i].Key != serial.All[i].Key {
						t.Fatalf("%s/%v/shards=%d: All[%d] = %s, serial %s",
							name, order, shards, i, res.All[i].Key, serial.All[i].Key)
					}
				}
				// Conservativeness: shard workers race ahead of incumbent
				// discovery, so they can only prune less than serial, never
				// more — and so only ever measure more, never less.
				if res.PrunedCount > serial.PrunedCount {
					t.Fatalf("%s/%v/shards=%d: pruned %d > serial %d",
						name, order, shards, res.PrunedCount, serial.PrunedCount)
				}
				if res.TotalSamples < serial.TotalSamples {
					t.Fatalf("%s/%v/shards=%d: samples %d < serial %d",
						name, order, shards, res.TotalSamples, serial.TotalSamples)
				}
			}
		}
	}
}

func TestTunerShardedTieBreaksByTraversalIndex(t *testing.T) {
	// Two exactly tied maxima: the winner must be the one earlier in
	// traversal order — case-1 forward, case-2 reverse — for every shard
	// count, never a completion-order accident.
	values := []float64{7, 9, 9, 3}
	want := map[Order]string{OrderForward: "case-1", OrderReverse: "case-2"}
	for order, key := range want {
		for _, shards := range []int{1, 2, 4} {
			res := runOrdered(t, quickBudget(), order, shards, 0, values)
			if res.Best.Key != key {
				t.Fatalf("%v/shards=%d: winner %s, want %s", order, shards, res.Best.Key, key)
			}
		}
	}
}

func TestTunerPreSeededIncumbent(t *testing.T) {
	b := quickBudget()
	b.Invocations = 4
	b.UseOuterBound = true
	values := []float64{10, 100, 20, 30}
	for _, shards := range []int{1, 4} {
		// A seed below the best: the winner survives, hopeless cases are
		// prunable from the very first evaluation, and the result is a
		// real measurement.
		res := runOrdered(t, b, OrderForward, shards, 50, values)
		if res.Best.Key != "case-1" || res.BestPruned {
			t.Fatalf("shards=%d: best %s, BestPruned %v", shards, res.Best.Key, res.BestPruned)
		}
		// A seed above everything: every configuration is outer-pruned and
		// Best degrades to a salvage value, which must be flagged.
		res = runOrdered(t, b, OrderForward, shards, 1000, values)
		if res.PrunedCount != len(values) {
			t.Fatalf("shards=%d: pruned %d of %d", shards, res.PrunedCount, len(values))
		}
		if res.Best == nil || !res.BestPruned {
			t.Fatalf("shards=%d: all-pruned salvage not flagged: best %v, BestPruned %v",
				shards, res.Best, res.BestPruned)
		}
		if !res.Best.Pruned {
			t.Fatalf("shards=%d: salvage Best must itself be a pruned outcome", shards)
		}
	}
}

func TestTunerShardedOnOutcomeAndErrors(t *testing.T) {
	// OnOutcome fires once per case from the shard workers; engine
	// failures propagate out of the sharded run like the serial one.
	clock := vclock.NewVirtual()
	tuner := NewTuner(clock, quickBudget(), OrderForward)
	tuner.Shards = 4
	var (
		mu   sync.Mutex
		seen []string
	)
	tuner.OnOutcome = func(o *bench.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, o.Key)
	}
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := tuner.Run(context.Background(), makeCases(clock, values)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(values) {
		t.Fatalf("OnOutcome fired %d times for %d cases", len(seen), len(values))
	}

	failing := NewTuner(vclock.NewVirtual(), quickBudget(), OrderForward)
	failing.Shards = 4
	if _, err := failing.Run(context.Background(), []bench.Case{&errCase{}, &errCase{}}); err == nil {
		t.Fatal("sharded run must propagate engine failure")
	}
}

// errCase always fails to start an invocation.
type errCase struct{}

func (errCase) Key() string          { return "err" }
func (errCase) Config() bench.Config { return nil }
func (errCase) Describe() string     { return "err" }
func (errCase) Metric() bench.Metric { return bench.MetricFlops }
func (errCase) NewInvocation(int) (bench.Instance, error) {
	return nil, fmt.Errorf("engine failure")
}

func TestTunerShardedCancellation(t *testing.T) {
	clock := vclock.NewVirtual()
	tuner := NewTuner(clock, quickBudget(), OrderForward)
	tuner.Shards = 2
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from the first completed outcome: the remaining claims are
	// skipped and the run reports the cancellation, joined cleanly.
	tuner.OnOutcome = func(*bench.Outcome) { cancel() }
	values := make([]float64, 64)
	for i := range values {
		values[i] = float64(i + 1)
	}
	if _, err := tuner.Run(ctx, makeCases(clock, values)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
}

func TestTunerEmptySpace(t *testing.T) {
	tuner := NewTuner(vclock.NewVirtual(), quickBudget(), OrderForward)
	if _, err := tuner.Run(context.Background(), nil); err == nil {
		t.Fatal("empty space must error")
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(102, 100) != 0.02 {
		t.Fatalf("RelativeError = %v", RelativeError(102, 100))
	}
	if RelativeError(0, 0) != 0 {
		t.Fatal("0/0 must be 0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Fatal("x/0 must be +Inf")
	}
}

func TestOrderString(t *testing.T) {
	if OrderForward.String() != "forward" || OrderReverse.String() != "reverse" || OrderRandom.String() != "random" {
		t.Fatal("order names")
	}
}

// TestTunerShardedConfirmsSerialOutcomes: on a noisy simulated engine with
// stop condition 4 active at both levels, shard workers measure against
// schedule-dependent bound snapshots, yet after confirmation every
// per-case outcome, the winner's value, PrunedCount and TotalSamples are
// exactly the serial ones — repeatedly, so a lucky schedule cannot pass it.
func TestTunerShardedConfirmsSerialOutcomes(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	budget := bench.DefaultBudget().WithFlags(true, true, true)
	space := UnionDGEMMSpace()[:24]
	run := func(shards int) *Result {
		t.Helper()
		eng := bench.NewSimEngine(sys, 1021)
		cases := make([]bench.Case, len(space))
		for i, d := range space {
			cases[i] = eng.DGEMMCase(d.N, d.M, d.K, 1)
		}
		tuner := NewTuner(eng.Clock, budget, OrderForward)
		tuner.Shards = shards
		res, err := tuner.Run(context.Background(), cases)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for round := 0; round < 5; round++ {
		for _, shards := range []int{2, 3, 8} {
			res := run(shards)
			if res.Best.Key != serial.Best.Key || res.BestValue() != serial.BestValue() {
				t.Fatalf("shards=%d: winner %s %v, serial %s %v",
					shards, res.Best.Key, res.BestValue(), serial.Best.Key, serial.BestValue())
			}
			if res.PrunedCount != serial.PrunedCount || res.TotalSamples != serial.TotalSamples {
				t.Fatalf("shards=%d: pruned %d samples %d, serial pruned %d samples %d",
					shards, res.PrunedCount, res.TotalSamples, serial.PrunedCount, serial.TotalSamples)
			}
			for i, out := range res.All {
				want := serial.All[i]
				if out.Key != want.Key || out.Mean != want.Mean || out.Pruned != want.Pruned ||
					out.InnerStops != want.InnerStops || out.TotalSamples != want.TotalSamples {
					t.Fatalf("shards=%d: outcome %d = %s mean %v pruned %v, serial %s mean %v pruned %v",
						shards, i, out.Key, out.Mean, out.Pruned, want.Key, want.Mean, want.Pruned)
				}
			}
		}
	}
}
