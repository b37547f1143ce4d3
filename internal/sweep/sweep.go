// Package sweep is the engine-agnostic autotuning sweep layer: it runs a
// set of independent tuning sweeps — one per (socket configuration x
// residency region) in the roofline reproduction — and recovers each
// winner as a typed bench.Config instead of re-parsing outcome keys.
//
// Specs are independent by construction: each owns its engine and clock,
// and the simulated engines derive every noise sample by hashing
// (seed, configuration, invocation) rather than engine state. The runner
// may therefore execute specs concurrently with results bit-identical to
// serial execution (asserted by TestRunParallelDeterminism), mirroring
// the guarantee experiments.RunCampaign already makes per system.
//
// Orthogonally, CaseShards parallelises *within* one sweep: shard workers
// evaluate the ordered case list concurrently under core.Tuner's
// order-insensitive incumbent protocol. That is a weaker guarantee than
// across-sweep concurrency — the winner, its value, the pruning count
// and sample totals are invariant, but the search time also pays for the
// speculative evaluations the tuner's serial confirmation replaced. The
// default policy sizes shard pools adaptively
// from spare host parallelism; pin CaseShards to 1 for the strictly
// serial evaluation loop.
//
// Sweeps stop being fully independent when a plan graph says so: RunPlan
// executes Nodes whose SeedFrom edges chain same-metric sweeps, seeding a
// dependent sweep's incumbent with its dependency's measured winner so
// cross-sweep knowledge pre-prunes the search (see Node and RunPlan).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/parallel"
	"rooftune/internal/vclock"
)

// Spec is one independent autotuning sweep: a named case list measured on
// its own engine clock. The clock must be the one the cases' engine
// advances, so the outcome's Elapsed accounts the sweep's full cost.
type Spec struct {
	Name  string
	Clock vclock.Clock
	Cases []bench.Case
	// CaseShards overrides the Runner's case-shard policy for this sweep
	// (0 = use the Runner's, which may size adaptively; 1 = force serial
	// evaluation). See Runner.CaseShards.
	CaseShards int
}

// Outcome pairs a finished sweep with its typed winning configuration.
type Outcome struct {
	Name string
	// ID is the sweep's plan-graph identity (empty under the flat Run
	// entry point, which has no graph).
	ID string
	// Result is the tuner's full search result.
	Result *core.Result
	// Best is the winner's typed identity (nil only if the winning Case
	// itself carried no config, e.g. a test fake).
	Best bench.Config
	// SeededFrom names the plan-graph sweep whose measured winner
	// pre-seeded this sweep's incumbent bound (empty when the sweep
	// started unseeded). Only RunPlan sets it.
	SeededFrom string
	// SeedValue is the pre-seeded incumbent in metric base units (zero
	// when SeededFrom is empty).
	SeedValue float64
}

// BestValue returns the winning mean in metric base units.
func (o *Outcome) BestValue() float64 { return o.Result.BestValue() }

// DGEMM returns the winner as a DGEMM configuration.
func (o *Outcome) DGEMM() (bench.DGEMMConfig, error) {
	cfg, ok := o.Best.(bench.DGEMMConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want DGEMM", o.Name, o.Best)
	}
	return cfg, nil
}

// Triad returns the winner as a TRIAD configuration.
func (o *Outcome) Triad() (bench.TriadConfig, error) {
	cfg, ok := o.Best.(bench.TriadConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want TRIAD", o.Name, o.Best)
	}
	return cfg, nil
}

// SpMV returns the winner as an SpMV configuration.
func (o *Outcome) SpMV() (bench.SpMVConfig, error) {
	cfg, ok := o.Best.(bench.SpMVConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want SpMV", o.Name, o.Best)
	}
	return cfg, nil
}

// Stencil returns the winner as a stencil configuration.
func (o *Outcome) Stencil() (bench.StencilConfig, error) {
	cfg, ok := o.Best.(bench.StencilConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want stencil", o.Name, o.Best)
	}
	return cfg, nil
}

// Hooks observe sweep execution. Sweeps may run concurrently, so every
// callback must be safe for concurrent use; all callbacks are optional.
// They exist to drive live progress output (the session layer adapts them
// into its public event stream) and carry no results — outcomes still
// arrive only through Run's return value.
type Hooks struct {
	// SweepStarted fires when a sweep's search begins.
	SweepStarted func(name string, cases int)
	// CaseEvaluated fires after each configuration's evaluation.
	CaseEvaluated func(sweep string, out *bench.Outcome)
	// SweepWon fires when a sweep finishes with its winner.
	SweepWon func(o *Outcome)
	// SweepSeeded fires when RunPlan releases a dependent sweep with its
	// incumbent pre-seeded by a finished dependency's winner. id and from
	// are plan-graph IDs; value is the seed in metric base units.
	SweepSeeded func(id, from string, value float64)
}

// Runner executes sweeps with a shared budget and traversal order.
type Runner struct {
	Budget bench.Budget
	Order  core.Order
	// Serial forces one-sweep-at-a-time execution. Native builds set it:
	// concurrent wall-clock measurement would contend on the host. For
	// simulated builds it exists for debugging and the determinism tests —
	// parallel results are bit-identical either way.
	Serial bool
	// Workers caps sweep-level concurrency (default: the host budget —
	// see Host).
	Workers int
	// Host is the host-parallelism budget this runner may assume it owns
	// (default GOMAXPROCS). It bounds both sweep-level concurrency and the
	// adaptive case-shard policy's notion of spare capacity, so N runners
	// sharing one machine under a serving tier's budget (each handed
	// capacity/N) divide the host instead of each sizing pools as if it
	// ran alone. Explicit Workers settings are clamped to it. Host never
	// changes results on simulated engines — sweep-level schedules are
	// bit-identical by construction — only how much hardware the schedule
	// occupies.
	Host int
	// CaseShards is the number of workers evaluating cases concurrently
	// *within* each sweep. 1 forces strictly serial case evaluation (the
	// paper's loop); n > 1 fixes the shard pool; 0 (the default) sizes it
	// adaptively: each sweep gets the host parallelism left over once
	// sweep-level concurrency is accounted for, capped so no shard owns
	// fewer than a handful of cases, and auto-disables (serial) whenever
	// sweep-level parallelism already saturates the host or the Runner is
	// Serial (a Serial runner stays fully single-threaded). Sharded sweeps
	// share a monotone atomic incumbent, so stop condition 4 keeps pruning
	// conservatively and the winner is shard-count-invariant on the
	// simulated engines; see core.Tuner. Search cost (PrunedCount,
	// TotalSamples, Elapsed) may differ between shard counts — callers
	// asserting bit-identical search cost must pin CaseShards to 1. Like
	// sweep-level concurrency, case sharding is for simulated engines
	// only — native callers must pin 1: concurrent wall-clock measurement
	// would contend on the host. A Spec may override the count per sweep
	// via Spec.CaseShards.
	CaseShards int
	// Hooks observe execution; see Hooks.
	Hooks Hooks
	// Exec, when non-nil, lets RunPlan delegate whole plan nodes to an
	// external executor — the distributed tier's coordinator dispatches
	// them to remote workers. The executor receives the node plus the
	// exact seed RunPlan would have applied locally, and returns the
	// node's Outcome (Name, ID, SeededFrom and SeedValue are filled in
	// by RunPlan). Returning ErrExecUnavailable falls the node back to
	// local execution — same seed, same shard policy — so a plan
	// completes whether or not any executor capacity exists. Exec is
	// called from node goroutines and must be safe for concurrent use.
	Exec ExecFunc
}

// ExecFunc executes one plan-graph node out-of-process. seedValue is
// the incumbent pre-seed in metric base units (0: unseeded), seedFrom
// the plan-graph ID it came from.
type ExecFunc func(ctx context.Context, n Node, seedFrom string, seedValue float64) (Outcome, error)

// ErrExecUnavailable, returned (or wrapped) by an ExecFunc, tells
// RunPlan to run that node locally instead — the graceful fallback when
// no remote worker is live.
var ErrExecUnavailable = errors.New("sweep: node executor unavailable")

// Run executes every spec and returns outcomes in spec order. Specs run
// concurrently unless Serial is set; outcomes and the reported error
// (always the first failing spec in spec order) never depend on
// scheduling. Serial runs additionally fail fast — no sweep starts after
// a failure, so a broken first sweep on the native path never pays for
// minutes of doomed wall-clock benchmarking. Parallel runs finish every
// in-flight spec instead: skipping by a racy flag would make which error
// surfaces depend on timing. An empty case list is an error, as is an
// empty spec slice.
//
// Cancelling ctx aborts the run: no new sweep starts, in-flight sweeps
// stop between kernel executions, and Run reports an error satisfying
// errors.Is(err, ctx.Err()) — unless the cancellation cost nothing
// because every spec had already completed, in which case the finished
// outcomes are returned with a nil error rather than discarded. Worker
// goroutines are always joined before Run returns — cancellation leaks
// nothing.
func (r *Runner) Run(ctx context.Context, specs []Spec) ([]Outcome, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweep: no specs")
	}
	outs := make([]Outcome, len(specs))
	errs := make([]error, len(specs))
	workers := r.workerCount()
	failFast := workers == 1
	var failed atomic.Bool
	pool := parallel.NewPool(workers)
	poolErr := pool.RunContext(ctx, len(specs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				// Record the skip on the spec itself: RunContext reports
				// nil when every partition executed, so a spec this loop
				// skipped mid-partition must carry its own cancellation
				// error rather than ride on the pool's.
				errs[i] = fmt.Errorf("sweep: %s: %w", specs[i].Name, err)
				continue
			}
			if failFast && failed.Load() {
				return
			}
			outs[i], errs[i] = r.runOne(ctx, specs[i], r.shardsFor(specs[i], len(specs)), seedNone)
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	})
	pool.Close()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if poolErr != nil {
		return nil, fmt.Errorf("sweep: %w", poolErr)
	}
	return outs, nil
}

// hostThreads resolves the runner's host-parallelism budget: the Host
// cap when set, otherwise the whole machine.
func (r *Runner) hostThreads() int {
	if r.Host > 0 {
		return r.Host
	}
	return parallel.DefaultThreads()
}

// workerCount resolves sweep-level concurrency: Workers clamped to the
// host budget, Serial pinning it to one.
func (r *Runner) workerCount() int {
	host := r.hostThreads()
	workers := r.Workers
	if workers <= 0 || workers > host {
		workers = host
	}
	if r.Serial {
		workers = 1
	}
	return workers
}

// minShardCases is the smallest case count worth giving an adaptive shard
// worker: below it, shard startup and incumbent traffic outweigh the
// concurrency, so small sweeps stay serial on their own.
const minShardCases = 8

// shardsFor resolves one sweep's case-shard count: the Spec's override
// first, then the Runner's fixed count, then the adaptive policy — spare
// host parallelism divided across the sweeps that can run concurrently,
// capped by the sweep's case count. The policy is a pure function of the
// run's shape (never of live load), so re-runs of one configuration stay
// deterministic on a given host.
func (r *Runner) shardsFor(s Spec, concurrent int) int {
	if s.CaseShards != 0 {
		return s.CaseShards
	}
	if r.CaseShards != 0 {
		return r.CaseShards
	}
	if r.Serial {
		// Serial means serial: callers set it for debugging and for
		// bit-exact baselines, so the adaptive policy must not sneak
		// concurrency back in through shard workers.
		return 1
	}
	host := r.hostThreads()
	sweepWorkers := r.Workers
	if sweepWorkers <= 0 || sweepWorkers > host {
		sweepWorkers = host
	}
	if concurrent > 0 && sweepWorkers > concurrent {
		sweepWorkers = concurrent
	}
	spare := host / sweepWorkers
	if spare <= 1 {
		return 1 // sweep-level parallelism already saturates the host
	}
	if most := (len(s.Cases) + minShardCases - 1) / minShardCases; spare > most {
		spare = most
	}
	if spare < 1 {
		spare = 1
	}
	return spare
}

// seedNone marks an unseeded runOne call.
var seedNone = seed{}

// seed carries a pre-seeded incumbent into runOne.
type seed struct {
	from  string  // plan-graph ID of the sweep whose winner is the bound
	value float64 // bound in metric base units (0 = none)
	// shared, when non-nil, is an externally owned monotone incumbent
	// wired into the node's tuner (core.Tuner.Shared) so bounds pushed
	// mid-sweep — the distributed tier's async incumbent sharing —
	// reach a running search.
	shared *bench.AtomicIncumbent
}

// execOne runs one plan node through the Runner's external executor,
// falling back to local execution when the executor declines with
// ErrExecUnavailable. A remotely executed node fires SweepStarted and
// SweepWon (after completion — the remote search is opaque here, so the
// two arrive back to back); CaseEvaluated hooks fire only for locally
// run nodes.
func (r *Runner) execOne(ctx context.Context, n Node, shards int, sd seed) (Outcome, error) {
	if r.Exec == nil {
		return r.runOne(ctx, n.Spec, shards, sd)
	}
	out, err := r.Exec(ctx, n, sd.from, sd.value)
	if errors.Is(err, ErrExecUnavailable) {
		return r.runOne(ctx, n.Spec, shards, sd)
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("sweep: %s: %w", n.Spec.Name, err)
	}
	out.Name = n.Spec.Name
	out.SeededFrom, out.SeedValue = sd.from, sd.value
	if r.Hooks.SweepStarted != nil {
		r.Hooks.SweepStarted(n.Spec.Name, len(n.Spec.Cases))
	}
	if r.Hooks.SweepWon != nil {
		r.Hooks.SweepWon(&out)
	}
	return out, nil
}

// RunNode executes exactly one node of a validated plan graph, exactly
// as a local RunPlan executing the whole graph would have run it: the
// same adaptive shard policy (sized from the full graph's concurrent
// width), the same incumbent pre-seed, the same hooks. It is the worker
// side of the distributed tier — the coordinator honors the graph's
// seed edges and dispatches one node at a time; the worker replays just
// that node. shared, when non-nil, additionally wires an externally
// owned monotone incumbent into the search so bounds pushed mid-sweep
// reach it (see core.Tuner.Shared).
func (r *Runner) RunNode(ctx context.Context, nodes []Node, id string, seedValue float64, shared *bench.AtomicIncumbent) (Outcome, error) {
	if err := ValidatePlan(nodes); err != nil {
		return Outcome{}, err
	}
	edges := 0
	target := -1
	for i, n := range nodes {
		if n.SeedFrom != "" {
			edges++
		}
		if n.ID == id {
			target = i
		}
	}
	if target < 0 {
		return Outcome{}, fmt.Errorf("sweep: plan has no node %q", id)
	}
	// Mirror RunPlan's adaptive-shard width: nodes minus edges is the
	// graph's concurrent chain count (see RunPlan).
	width := len(nodes) - edges
	if width < 1 {
		width = 1
	}
	n := nodes[target]
	sd := seed{value: seedValue, shared: shared}
	if seedValue > 0 {
		// Provenance mirrors RunPlan: SeededFrom is recorded only when a
		// seed was actually applied (a dependency that finished with a
		// salvage value releases its dependents unseeded).
		sd.from = n.SeedFrom
	}
	out, err := r.runOne(ctx, n.Spec, r.shardsFor(n.Spec, width), sd)
	if err != nil {
		return out, err
	}
	out.ID = n.ID
	return out, nil
}

func (r *Runner) runOne(ctx context.Context, s Spec, shards int, sd seed) (Outcome, error) {
	if len(s.Cases) == 0 {
		return Outcome{}, fmt.Errorf("sweep: %s: empty case list", s.Name)
	}
	if r.Hooks.SweepStarted != nil {
		r.Hooks.SweepStarted(s.Name, len(s.Cases))
	}
	tuner := core.NewTuner(s.Clock, r.Budget, r.Order)
	tuner.Shards = shards
	tuner.Incumbent = sd.value
	tuner.Shared = sd.shared
	if r.Hooks.CaseEvaluated != nil {
		tuner.OnOutcome = func(out *bench.Outcome) { r.Hooks.CaseEvaluated(s.Name, out) }
	}
	res, err := tuner.Run(ctx, s.Cases)
	if err != nil {
		return Outcome{}, fmt.Errorf("sweep: %s: %w", s.Name, err)
	}
	out := Outcome{Name: s.Name, Result: res, SeededFrom: sd.from, SeedValue: sd.value}
	if res.Best != nil {
		out.Best = res.Best.Config
	}
	if r.Hooks.SweepWon != nil {
		r.Hooks.SweepWon(&out)
	}
	return out, nil
}
