package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// scriptedCase is a deterministic fake benchmark whose iteration times
// follow a script, letting every stop condition be tested in isolation.
type scriptedCase struct {
	key   string
	clock *vclock.Virtual
	work  float64
	// times returns the duration of iteration i for invocation inv.
	times func(inv, i int) time.Duration
	// invocationsStarted counts NewInvocation calls.
	invocationsStarted int
}

func (s *scriptedCase) Key() string      { return s.key }
func (s *scriptedCase) Config() Config   { return nil }
func (s *scriptedCase) Describe() string { return "scripted " + s.key }
func (s *scriptedCase) Metric() Metric   { return MetricFlops }

func (s *scriptedCase) NewInvocation(inv int) (Instance, error) {
	s.invocationsStarted++
	return &scriptedInstance{c: s, inv: inv}, nil
}

type scriptedInstance struct {
	c      *scriptedCase
	inv, i int
	warmed bool
}

func (si *scriptedInstance) Warmup() { si.warmed = true }

func (si *scriptedInstance) Step() time.Duration {
	if !si.warmed {
		panic("Step before Warmup")
	}
	d := si.c.times(si.inv, si.i)
	si.i++
	si.c.clock.Advance(d)
	return d
}

func (si *scriptedInstance) Work() float64 { return si.c.work }
func (si *scriptedInstance) Close()        {}

func constantCase(clock *vclock.Virtual, d time.Duration) *scriptedCase {
	return &scriptedCase{
		key: "const", clock: clock, work: 1e9,
		times: func(inv, i int) time.Duration { return d },
	}
}

func TestStopMaxCount(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 7
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), None)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Invocations) != 2 {
		t.Fatalf("invocations = %d", len(out.Invocations))
	}
	for _, inv := range out.Invocations {
		if inv.Samples != 7 || inv.Reason != StopMaxCount {
			t.Fatalf("invocation: %+v", inv)
		}
	}
	if out.TotalSamples != 14 {
		t.Fatalf("TotalSamples = %d", out.TotalSamples)
	}
	// metric = 1e9 work / 1ms = 1e12.
	if math.Abs(out.Mean-1e12) > 1 {
		t.Fatalf("Mean = %v", out.Mean)
	}
}

func TestStopMaxTimePerInvocation(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 3
	b.MaxIterations = 1000
	b.MaxTime = 10 * time.Millisecond
	b.Scope = ScopePerInvocation
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), constantCase(clock, 3*time.Millisecond), None)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Invocations) != 3 {
		t.Fatalf("per-invocation scope must run all invocations: %d", len(out.Invocations))
	}
	for _, inv := range out.Invocations {
		// 4 iterations reach 12ms >= 10ms.
		if inv.Samples != 4 || inv.Reason != StopMaxTime {
			t.Fatalf("invocation: %+v", inv)
		}
	}
}

func TestStopMaxTimePerConfig(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 10
	b.MaxIterations = 1000
	b.MaxTime = 10 * time.Millisecond
	b.Scope = ScopePerConfig
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), constantCase(clock, 3*time.Millisecond), None)
	if err != nil {
		t.Fatal(err)
	}
	// Invocation 1 burns 12ms >= 10ms total: remaining 9 are skipped.
	if len(out.Invocations) != 1 {
		t.Fatalf("per-config scope must skip remaining invocations: got %d", len(out.Invocations))
	}
}

func TestStopConfidenceConstantSamples(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.UseConfidence = true
	b.MinCISamples = 5
	e := NewEvaluator(clock, b)
	// Constant samples: zero variance, CI collapses at the first check.
	out, err := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), None)
	if err != nil {
		t.Fatal(err)
	}
	inv := out.Invocations[0]
	if inv.Reason != StopConfidence {
		t.Fatalf("reason = %v", inv.Reason)
	}
	if inv.Samples != b.MinCISamples {
		t.Fatalf("should stop at the first permitted check: n=%d", inv.Samples)
	}
}

func TestConfidenceRespectsMinCISamples(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.UseConfidence = true
	b.MinCISamples = 17
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), None)
	if out.Invocations[0].Samples != 17 {
		t.Fatalf("stopped at n=%d, want 17", out.Invocations[0].Samples)
	}
}

func TestInnerBoundEndsInvocationNotConfig(t *testing.T) {
	clock := vclock.NewVirtual()
	// Slow case: metric 1e11; incumbent best is 1e12 — hopeless.
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 4
	b.UseInnerBound = true
	b.MinCount = 2
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), c, Fixed(1e12))
	if err != nil {
		t.Fatal(err)
	}
	// Every invocation stops at MinCount via the bound, but the
	// invocation loop itself continues (that is the Outer flag's job).
	if len(out.Invocations) != 4 {
		t.Fatalf("inner bound must not abandon the config: %d invocations", len(out.Invocations))
	}
	if out.InnerStops != 4 {
		t.Fatalf("InnerStops = %d", out.InnerStops)
	}
	for _, inv := range out.Invocations {
		if inv.Reason != StopBound || inv.Samples != 2 {
			t.Fatalf("invocation: %+v", inv)
		}
	}
	if out.Pruned {
		t.Fatal("inner stops alone must not set Pruned")
	}
	if out.Better(1e12) {
		t.Fatal("a bound-stopped config must never beat the incumbent")
	}
}

func TestInnerBoundRespectsMinCount(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 300
	b.UseInnerBound = true
	b.MinCount = 100 // the paper's 2695v4 remedy
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, Fixed(1e12))
	if got := out.Invocations[0].Samples; got != 100 {
		t.Fatalf("bound fired at n=%d, want exactly min_count=100", got)
	}
}

func TestOuterBoundPrunesConfig(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 10
	b.MaxIterations = 5
	b.UseOuterBound = true
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), c, Fixed(1e12))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pruned {
		t.Fatal("outer bound must prune")
	}
	if len(out.Invocations) != 2 {
		t.Fatalf("outer bound needs exactly 2 invocation means: got %d", len(out.Invocations))
	}
}

func TestOuterBoundNeedsTwoInvocations(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 5
	b.UseOuterBound = true
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, Fixed(1e12))
	if out.Pruned {
		t.Fatal("outer bound must not fire with a single invocation mean")
	}
}

func TestNoBoundWithoutIncumbent(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 5
	b.UseInnerBound = true
	b.UseOuterBound = true
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, None)
	if out.Pruned || out.InnerStops > 0 {
		t.Fatal("stop condition 4 must never fire against NoBest")
	}
}

func TestListing1Semantics(t *testing.T) {
	// Listing 1: break when mean + marg < best. A case whose metric sits
	// just *below* best but whose CI still reaches best must keep
	// running; one far below stops at MinCount.
	clock := vclock.NewVirtual()
	jitter := []time.Duration{
		1000 * time.Microsecond, 1040 * time.Microsecond,
		960 * time.Microsecond, 1020 * time.Microsecond,
		980 * time.Microsecond, 1010 * time.Microsecond,
	}
	c := &scriptedCase{
		key: "near", clock: clock, work: 1e9,
		times: func(inv, i int) time.Duration { return jitter[i%len(jitter)] },
	}
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 6
	b.UseInnerBound = true
	e := NewEvaluator(clock, b)
	// mean metric ~1e12; best just 0.5% above: CI (wide, n small) covers it.
	out, _ := e.Evaluate(context.Background(), c, Fixed(1.005e12))
	if out.Invocations[0].Reason == StopBound {
		t.Fatal("bound fired although the CI still covered the incumbent")
	}
	// best 40% above: hopeless, prune at MinCount.
	clock2 := vclock.NewVirtual()
	c.clock = clock2
	e2 := NewEvaluator(clock2, b)
	out2, _ := e2.Evaluate(context.Background(), c, Fixed(1.4e12))
	if out2.Invocations[0].Reason != StopBound {
		t.Fatalf("bound must fire against a hopeless incumbent: %+v", out2.Invocations[0])
	}
}

func TestElapsedTracksClock(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 10
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), None)
	if out.Elapsed != clock.Now() {
		t.Fatalf("Elapsed %v != clock %v", out.Elapsed, clock.Now())
	}
	if out.Elapsed < 20*time.Millisecond {
		t.Fatalf("Elapsed %v implausibly small", out.Elapsed)
	}
}

func TestMeanOverInvocationMeans(t *testing.T) {
	clock := vclock.NewVirtual()
	// Invocation 0 runs at 1ms, invocation 1 at 2ms: metrics 1e12 and
	// 5e11; the config mean is their average.
	c := &scriptedCase{
		key: "two-speeds", clock: clock, work: 1e9,
		times: func(inv, i int) time.Duration {
			return time.Duration(inv+1) * time.Millisecond
		},
	}
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 4
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, None)
	want := (1e12 + 5e11) / 2
	if math.Abs(out.Mean-want)/want > 1e-9 {
		t.Fatalf("Mean = %v, want %v", out.Mean, want)
	}
}

func TestStudentTBudget(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 12
	b.UseConfidence = true
	b.UseStudentT = true
	b.MinCISamples = 5
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), None)
	if out.Invocations[0].Reason != StopConfidence {
		t.Fatal("t-interval must also converge on constant data")
	}
}

func TestMedianStopCondition(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.UseConfidence = true
	b.UseMedian = true
	b.MinCISamples = 5
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), None)
	if out.Invocations[0].Reason != StopConfidence {
		t.Fatal("median rule must converge on constant data")
	}
}

func TestBudgetNormalization(t *testing.T) {
	var b Budget // all zero
	n := b.normalized()
	if n.Invocations != 1 || n.MaxIterations != 1 || n.MaxTime <= 0 ||
		n.ErrorInverse != 100 || n.CILevel != 0.99 || n.MinCount != 2 || n.MinCISamples != 2 {
		t.Fatalf("normalized zero budget: %+v", n)
	}
}

func TestDefaultBudgetIsTableI(t *testing.T) {
	b := DefaultBudget()
	if b.Invocations != 10 || b.MaxIterations != 200 ||
		b.MaxTime != 10*time.Second || b.ErrorInverse != 100 || b.CILevel != 0.99 {
		t.Fatalf("Table I mismatch: %+v", b)
	}
	if b.RelWidthTarget() != 0.01 {
		t.Fatalf("Error=100 must mean ±1%%: %v", b.RelWidthTarget())
	}
	if b.UseConfidence || b.UseInnerBound || b.UseOuterBound {
		t.Fatal("Default technique must have every optimisation off")
	}
}

func TestWithFlagsAndMinCount(t *testing.T) {
	b := DefaultBudget().WithFlags(true, true, false).WithMinCount(100)
	if !b.UseConfidence || !b.UseInnerBound || b.UseOuterBound || b.MinCount != 100 {
		t.Fatalf("WithFlags/WithMinCount: %+v", b)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[StopReason]string{
		StopNone: "none", StopMaxTime: "max-time", StopMaxCount: "max-count",
		StopConfidence: "confidence", StopBound: "bound-pruned",
	} {
		if r.String() != want {
			t.Errorf("StopReason(%d) = %q", int(r), r.String())
		}
	}
}

func TestEvaluateErrorPropagation(t *testing.T) {
	clock := vclock.NewVirtual()
	e := NewEvaluator(clock, DefaultBudget())
	_, err := e.Evaluate(context.Background(), &failingCase{}, None)
	if err == nil {
		t.Fatal("engine errors must propagate")
	}
}

type failingCase struct{}

func (f *failingCase) Key() string      { return "fail" }
func (f *failingCase) Config() Config   { return nil }
func (f *failingCase) Describe() string { return "fail" }
func (f *failingCase) Metric() Metric   { return MetricFlops }
func (f *failingCase) NewInvocation(int) (Instance, error) {
	return nil, fmt.Errorf("boom")
}

func TestEvaluateCancellation(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 5
	b.MaxIterations = 1000
	e := NewEvaluator(clock, b)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Evaluate(ctx, constantCase(clock, time.Millisecond), None); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancel mid-evaluation: the sampler observes iterations, so cancel
	// from the measurement path itself and count how far the loop ran.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	e.Sampler = samplerFunc(func() {
		if seen.Add(1) == 3 {
			cancel()
		}
	})
	out, err := e.Evaluate(ctx, constantCase(clock, time.Millisecond), None)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("canceled evaluation leaked a partial outcome: %+v", out)
	}
	if got := seen.Load(); got != 3 {
		t.Fatalf("iterations after cancel: %d samples, want exactly 3", got)
	}
}

// samplerFunc adapts a closure to the Sampler interface for tests.
type samplerFunc func()

func (f samplerFunc) Sample(string, int, int, time.Duration, float64) { f() }

// TestReproducesUnder pins the contract a sharded search confirms its
// outcomes with: an outcome always reproduces under the bound it was
// measured against, and whenever it claims to reproduce under another
// bound, evaluating against that bound yields the identical outcome.
// The bounds sweep across the case's own invocation means, where stop
// condition 4's inner and outer decisions flip.
func TestReproducesUnder(t *testing.T) {
	sys, err := hw.Get("Gold 6148")
	if err != nil {
		t.Fatal(err)
	}
	budget := DefaultBudget().WithFlags(true, true, true)
	evaluate := func(bound float64) *Outcome {
		t.Helper()
		eng := NewSimEngine(sys, 1021)
		out, err := NewEvaluator(eng.Clock, budget).Evaluate(context.Background(), eng.DGEMMCase(2048, 2048, 128, 1), Fixed(bound))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	free := evaluate(NoBest)
	bounds := []float64{NoBest, 0, free.Mean * 0.5, free.Mean * 2}
	for _, inv := range free.Invocations {
		bounds = append(bounds, inv.Mean*0.999, inv.Mean, inv.Mean*1.001, inv.CI.Upper)
	}
	same := func(a, b *Outcome) bool {
		return a.Mean == b.Mean && a.Pruned == b.Pruned && a.InnerStops == b.InnerStops &&
			a.TotalSamples == b.TotalSamples && reflect.DeepEqual(a.Invocations, b.Invocations)
	}
	agreed, differed := 0, 0
	for _, bound := range bounds {
		out := evaluate(bound)
		if !out.ReproducesUnder(bound) {
			t.Fatalf("outcome measured against %v does not reproduce under it", bound)
		}
		for _, other := range bounds {
			if !out.ReproducesUnder(other) {
				differed++
				continue
			}
			agreed++
			if again := evaluate(other); !same(out, again) {
				t.Fatalf("outcome measured against %v claims to reproduce under %v, but differs:\n%+v\n%+v",
					bound, other, out, again)
			}
		}
	}
	if agreed == 0 || differed == 0 {
		t.Fatalf("bound sweep exercised only one side of the contract (agreed %d, differed %d)", agreed, differed)
	}
	if (&Outcome{}).ReproducesUnder(NoBest) {
		t.Fatal("an outcome Evaluate did not produce must never reproduce")
	}
}
