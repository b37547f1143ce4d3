package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// Order is the traversal order of the search space.
type Order int

// Traversal orders. The paper studies Forward (cheap configurations
// first) and Reverse ("R" in Tables VIII-XI); Random is the standard
// baseline for larger spaces (§IV-C).
const (
	OrderForward Order = iota
	OrderReverse
	OrderRandom
)

// String names the order.
func (o Order) String() string {
	switch o {
	case OrderReverse:
		return "reverse"
	case OrderRandom:
		return "random"
	default:
		return "forward"
	}
}

// Result is the outcome of one search over a space.
type Result struct {
	// Best is the winning configuration's outcome (highest mean metric
	// among non-pruned evaluations). When BestPruned is set, no
	// configuration survived pruning and Best is a salvage value instead —
	// see BestPruned.
	Best *bench.Outcome
	// BestPruned reports that every configuration was outer-pruned (only
	// possible when the incumbent bound was pre-seeded, e.g. by shard
	// workers racing ahead or by a caller-supplied bound) and Best holds
	// the highest *truncated partial* mean rather than a measured winner.
	// Callers reporting Best as a measurement should surface this.
	BestPruned bool
	// All holds every configuration's outcome in traversal order — the
	// order the tuner's Order dictates, independent of how many shards
	// evaluated it.
	All []*bench.Outcome
	// Elapsed is the total search time on the engine's clock — virtual
	// seconds for simulated engines, the paper's "Time" column. Sharded
	// searches advance the same clock from every worker, so Elapsed
	// remains the summed virtual cost of all evaluations, not the
	// wall-clock of the concurrent schedule.
	Elapsed time.Duration
	// PrunedCount is how many configurations stop condition 4 abandoned.
	PrunedCount int
	// TotalSamples counts all measured iterations in the search.
	TotalSamples int
}

// BestValue returns the winning mean in metric base units, or 0 if the
// search found nothing.
func (r *Result) BestValue() float64 {
	if r.Best == nil {
		return 0
	}
	return r.Best.Mean
}

// Tuner performs exhaustive search over a benchmark case list with the
// adaptive evaluation process. Simple search techniques are the right
// tool at this cardinality (§IV-C): the spaces are small and sample cost
// dominates, so the win comes from cutting samples per configuration,
// not from clever traversal.
type Tuner struct {
	Evaluator *bench.Evaluator
	Order     Order
	// Seed drives the random order shuffle (only used for OrderRandom).
	Seed uint64
	// OnOutcome, when non-nil, observes every evaluated configuration —
	// used by experiment drivers to stream per-configuration series
	// (Fig. 6) without retaining engine internals. A serial tuner calls it
	// in traversal order; a sharded tuner (Shards > 1) calls it from the
	// shard workers in completion order, so it must then be safe for
	// concurrent use.
	OnOutcome func(*bench.Outcome)
	// Shards is the number of workers evaluating cases concurrently
	// within this one search (0 or 1 = the strictly serial loop). Workers
	// claim cases from the ordered list in traversal order and share a
	// monotone atomic incumbent bound, and their outcomes are confirmed
	// against the serial bound chain, so the winner is
	// shard-count-invariant; see Run. Sharding is meant for simulated
	// engines — concurrent wall-clock measurement on a native engine
	// would contend on the host.
	Shards int
	// Incumbent pre-seeds the incumbent bound (<= 0 means none): a caller
	// that already knows a reference performance — a previous sweep's
	// winner over the same metric, say — makes stop condition 4 prune
	// from the very first case. With a pre-seeded bound every
	// configuration can end up outer-pruned; Result.BestPruned reports
	// when the returned Best is such a salvage value.
	Incumbent float64
	// Shared, when non-nil, is an externally owned monotone incumbent
	// the search both reads and feeds: each evaluation prunes against
	// the higher of the local incumbent and the shared bound at that
	// moment, and every non-pruned mean is offered back. It exists for
	// distributed execution — a coordinator pushes bounds into a
	// worker's running search mid-sweep — and inherits the CAS-max
	// protocol's guarantees: offers only ever raise the bound, so
	// replayed, reordered or duplicate pushes are harmless, and a bound
	// is only ever a measured mean of the same metric, so the winner is
	// unchanged — only PrunedCount/TotalSamples can move (toward more
	// pruning). A sharded run (Shards > 1) uses Shared directly as its
	// workers' incumbent.
	Shared *bench.AtomicIncumbent
}

// NewTuner builds a tuner with the given evaluation budget on the clock.
func NewTuner(clock vclock.Clock, budget bench.Budget, order Order) *Tuner {
	return &Tuner{
		Evaluator: bench.NewEvaluator(clock, budget),
		Order:     order,
		Seed:      1,
	}
}

// Run evaluates every case in the tuner's order, carrying the incumbent
// best value into each evaluation so stop condition 4 can prune against
// it. It returns an error only on engine failure or context cancellation;
// statistical pruning is not an error. A canceled ctx aborts the search
// between kernel executions and returns ctx.Err().
//
// With Shards > 1 the ordered case list is evaluated by that many
// concurrent workers under an order-insensitive incumbent protocol:
//
//   - Workers claim cases from the ordered list one at a time, in
//     traversal order (a shared queue, not static blocks), and share one
//     monotone bench.AtomicIncumbent. Each worker snapshots the bound
//     immediately before claiming its next case and evaluates against the
//     snapshot. Claims are handed out in traversal order, so every value
//     in the snapshot came from a case at an earlier traversal index —
//     the sharded search never knows more than the serial search did at
//     the same case, and a case is pruned only against a mean some
//     earlier-in-traversal configuration truly achieved.
//   - A snapshot may still lack values that earlier, still-running cases
//     go on to measure, and stop condition 4 (inner and outer) reads the
//     bound, so a case's measured outcome — the winner's value included
//     — can depend on the schedule. Once all workers join, the outcomes
//     are confirmed in traversal order against the bound the serial loop
//     would have carried: an outcome whose every stop-condition-4
//     decision would have gone the same way under that bound is the
//     serial outcome (bench.Outcome.ReproducesUnder); any other case is
//     re-evaluated against the serial bound. With an externally fed
//     Shared bound there is no serial chain and the confirmation is
//     skipped.
//   - The winner is selected by replaying the serial selection scan over
//     Result.All in traversal order: first non-pruned outcome with the
//     strictly highest mean wins, so ties break by traversal-order index,
//     never by completion order.
//
// On a deterministic engine (the simulated ones) the confirmed outcomes
// are exactly the serial ones, so the winning configuration, its value,
// PrunedCount and TotalSamples are shard-count-invariant — asserted for
// every seed/order/space in the determinism suite (the sweep package's
// shard-invariance tests). Only Elapsed also pays for the speculative
// evaluations the confirmation replaced.
//
// Result.All is reassembled in traversal order regardless of completion
// order. Per-outcome Elapsed under sharding spans the evaluation's
// concurrent window on the shared clock; Result.Elapsed stays the exact
// summed virtual cost.
func (t *Tuner) Run(ctx context.Context, cases []bench.Case) (*Result, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("core: empty search space")
	}
	ordered := t.ordered(cases)
	watch := vclock.NewStopwatch(t.Evaluator.Clock)
	var (
		outs []*bench.Outcome
		err  error
	)
	if t.Shards > 1 && len(ordered) > 1 {
		outs, err = t.runSharded(ctx, ordered)
	} else {
		outs, err = t.runSerial(ctx, ordered)
	}
	if err != nil {
		return nil, err
	}
	res := assembleResult(outs)
	res.Elapsed = watch.Elapsed()
	return res, nil
}

// runSerial is the strictly serial evaluation loop: the incumbent is a
// plain scalar carried case to case, bit-identical to the original
// implementation (the compatibility shims ride on this path).
//
//rooflint:hotpath
func (t *Tuner) runSerial(ctx context.Context, ordered []bench.Case) ([]*bench.Outcome, error) {
	outs := make([]*bench.Outcome, 0, len(ordered))
	best := t.seedBound()
	for _, c := range ordered {
		bound := best
		if t.Shared != nil {
			// An externally pushed bound is a measured mean of the same
			// metric, so pruning against it is as sound as pruning
			// against a local win — see Shared.
			if sb := t.Shared.Bound(); sb > bound {
				bound = sb
			}
		}
		out, err := t.Evaluator.Evaluate(ctx, c, bench.Fixed(bound))
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		if out.Better(best) {
			best = out.Mean
		}
		if t.Shared != nil && !out.Pruned {
			t.Shared.Offer(out.Mean)
		}
		if t.OnOutcome != nil {
			t.OnOutcome(out)
		}
	}
	return outs, nil
}

// runSharded evaluates the ordered cases with t.Shards concurrent workers
// sharing a monotone atomic incumbent, then confirms the outcomes against
// the serial bound chain (see confirmSerial). See Run for the protocol
// and its guarantees. The first error in traversal order wins; on
// cancellation every worker is joined before the ctx error is reported.
func (t *Tuner) runSharded(ctx context.Context, ordered []bench.Case) ([]*bench.Outcome, error) {
	outs, err := t.runShardWorkers(ctx, ordered)
	if err != nil || t.Shared != nil {
		// An externally fed bound moves on its own schedule, so there is
		// no serial chain to confirm against.
		return outs, err
	}
	if err := t.confirmSerial(ctx, ordered, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// confirmSerial walks the outcomes in traversal order carrying the bound
// the serial loop would have carried, and re-evaluates, in place and
// against that bound, every case whose outcome would have differed
// under it. A shard worker evaluates against a snapshot taken when it
// claimed the case, which may lack values earlier cases were still
// measuring; stop condition 4 then decides some checks differently and
// the case's invocation means — the winner's value included — depend on
// the schedule. After confirmation every outcome is the one the serial
// search measures, so winners, values, PrunedCount and TotalSamples
// match serial exactly; only the search time still pays for the
// replaced evaluations. OnOutcome has already observed each case once,
// as first measured, and is not called again for a re-evaluation.
func (t *Tuner) confirmSerial(ctx context.Context, ordered []bench.Case, outs []*bench.Outcome) error {
	best := t.seedBound()
	for i, out := range outs {
		if !out.ReproducesUnder(best) {
			var err error
			if out, err = t.Evaluator.Evaluate(ctx, ordered[i], bench.Fixed(best)); err != nil {
				return err
			}
			outs[i] = out
		}
		if out.Better(best) {
			best = out.Mean
		}
	}
	return nil
}

// runShardWorkers is the concurrent phase of runSharded: t.Shards workers
// claim cases in traversal order and evaluate each against a snapshot of
// the shared bound.
func (t *Tuner) runShardWorkers(ctx context.Context, ordered []bench.Case) ([]*bench.Outcome, error) {
	shards := t.Shards
	if shards > len(ordered) {
		shards = len(ordered)
	}
	var (
		outs   = make([]*bench.Outcome, len(ordered))
		errs   = make([]error, len(ordered))
		inc    = t.Shared
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	if inc == nil {
		inc = bench.NewAtomicIncumbent()
	}
	inc.Offer(t.seedBound())
	for w := 0; w < shards; w++ {
		wg.Add(1)
		//rooflint:allow nogoroutine -- shard workers under the documented order-insensitive incumbent protocol; joined by wg.Wait before Run returns
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || failed.Load() {
					return
				}
				// Snapshot the bound BEFORE claiming: everything in it was
				// offered by a case claimed earlier, i.e. at a lower
				// traversal index — the invariant that keeps sharded
				// pruning a subset of serial pruning knowledge.
				bound := bench.Fixed(inc.Bound())
				i := int(next.Add(1)) - 1
				if i >= len(ordered) {
					return
				}
				out, err := t.Evaluator.Evaluate(ctx, ordered[i], bound)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				outs[i] = out
				if !out.Pruned {
					inc.Offer(out.Mean)
				}
				if t.OnOutcome != nil {
					t.OnOutcome(out)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// A nil slot means a worker stopped claiming before reaching that
	// case, which (absent an error above) only cancellation causes. A
	// cancellation that lands after the last case finished is not a
	// failure: the batch ran to completion.
	for _, out := range outs {
		if out == nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: sharded run lost an outcome without an error")
		}
	}
	return outs, nil
}

// assembleResult replays the serial winner-selection scan over the
// outcomes in traversal order. Keeping selection in one place is what
// makes the sharded search's winner provably tie-break like the serial
// one: the first outcome with the strictly highest non-pruned mean wins,
// whatever order evaluations completed in.
//
//rooflint:hotpath
func assembleResult(outs []*bench.Outcome) *Result {
	res := &Result{All: outs}
	best := bench.NoBest
	for _, out := range outs {
		res.TotalSamples += out.TotalSamples
		if out.Pruned {
			res.PrunedCount++
		}
		if out.Better(best) {
			best = out.Mean
			res.Best = out
		}
	}
	if res.Best == nil && len(res.All) > 0 {
		// Everything was outer-pruned (requires a pre-seeded bound; shard
		// workers pre-seed it routinely). Fall back to the highest partial
		// mean so callers get an answer, but flag it: a truncated partial
		// mean is a salvage value, not a measured winner.
		for _, out := range res.All {
			if res.Best == nil || out.Mean > res.Best.Mean {
				res.Best = out
			}
		}
		res.BestPruned = true
	}
	return res
}

// seedBound resolves the pre-seeded incumbent: NoBest unless the caller
// supplied a positive reference value.
func (t *Tuner) seedBound() float64 {
	if t.Incumbent > 0 {
		return t.Incumbent
	}
	return bench.NoBest
}

func (t *Tuner) ordered(cases []bench.Case) []bench.Case {
	out := make([]bench.Case, len(cases))
	copy(out, cases)
	switch t.Order {
	case OrderReverse:
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	case OrderRandom:
		rng := xrand.New(t.Seed)
		perm := rng.Perm(len(out))
		shuffled := make([]bench.Case, len(out))
		for i, p := range perm {
			shuffled[i] = out[p]
		}
		out = shuffled
	}
	return out
}

// RelativeError returns |a-b| / |b|, the paper's error measure when
// comparing an optimised search's result against the default's (the
// abstract claims < 2%). Returns +Inf for b == 0 with a != b.
func RelativeError(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
