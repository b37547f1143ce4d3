// Command perfbench is rooftune's end-to-end benchmark. One run sets up
// the serving tier, measures one workload's closed loop for a fixed
// time, checks every output it produced, and prints the named metrics
// with their units and sample counts. The last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload tune-local|serve-mix|dist-chain --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the loop untraced for half the time and traced for the other
// half, walks the fixed campaign list down the cost ladder, and reports
// the per-layer metrics and the tracing overhead. See README.md for the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

var endToEnd = []string{
	"setup_s", "campaigns_per_s", "campaign_ms_p50", "campaign_ms_p90",
	"hit_ms_p50", "hit_ms_p99", "miss_ms_p50", "miss_ms_p90",
	"alloc_kb_per_campaign", "search_virtual_s", "search_speedup_x", "ceiling_err_max_pct",
}

var perLayer = []string{
	"campaign.parse_us", "campaign.options_us", "session.new_us", "session.fingerprint_us",
	"session.run_ms", "session.result_encode_us",
	"workload.plan_us", "workload.plan_nodes", "workload.plan_cases",
	"sweep.runplan_ms", "sweep.node_ms_p50", "sweep.critical_path_ms", "sweep.parallelism",
	"tuner.configs_evaluated", "tuner.configs_pruned", "tuner.prune_ratio", "tuner.samples_total",
	"evaluate.us_p50", "evaluate.samples_per_case", "evaluate.inner_stops",
	"simblas.step_ns", "simstream.step_ns", "simspmv.step_ns", "simstencil.step_ns", "sim.steps",
	"serve.handler_us", "cache.hits", "cache.misses", "cache.hit_ratio", "cache.evictions",
	"admit.wait_ms", "admit.shed", "budget.contended",
	"dist.node_roundtrip_ms_p50", "dist.node_exec_ms_p50", "dist.node_overhead_ms", "dist.worker_resolve_us",
	"dist.node_spec_bytes", "dist.outcome_bytes",
	"dist.dispatched", "dist.requeued", "dist.deduped", "dist.local_fallback", "dist.worker_errors",
	"trace.overhead_pct",
}

// Streams keep the campaign draws of one run's loops apart: a measure
// call uses base + 1000*slice for its loop and 500 above that for its
// probe, and every loop draws only from stream..stream+101.
const (
	streamLoop   = 10
	streamTraced = 10_000
)

// slices is how many parts a run's timed loop is cut into; each metric
// is the trimmed mean of its per-slice values (see trimmedMean).
const slices = 9

// probeShare is the serve-mix probe's time relative to the loop's in
// tune-local and dist-chain, which have no cache hits of their own: each
// slice of their loop is followed by a slice of serve-mix traffic, so
// that every workload reports the serve cache's hit and miss latencies,
// sampled across the whole run.
const probeShare = 0.25

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "", "tune-local, serve-mix or dist-chain")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same campaigns")
	seconds := flag.Int("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *wl != "tune-local" && *wl != "serve-mix" && *wl != "dist-chain" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b := &benchRun{ctx: context.Background(), wl: *wl, seed: *seed, tr: newTracer()}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *wl, *seed, *seconds, *trace)
	d := time.Duration(*seconds) * time.Second
	var (
		rep   report
		names = endToEnd
		err   error
	)
	if *trace == 1 {
		names = perLayer
		err = b.traced(&rep, d)
	} else {
		err = b.untraced(&rep, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print("metric")
	frac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Printf("failures %s: %d failed / %d attempted (failed_frac=%g)\n", *wl, b.failed, b.attempted, frac)
	metrics, err := rep.jsonMetrics(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// benchRun is one run's state.
type benchRun struct {
	ctx       context.Context
	wl        string
	seed      uint64
	tr        *tracer
	host      hostSpeed
	attempted int
	failed    int
}

// loop runs the workload's closed loop for d.
func (b *benchRun) loop(e *env, stream uint64, d time.Duration) *loopResult {
	switch b.wl {
	case "tune-local":
		return tuneLocal(b.ctx, b.seed, stream, d, b.tr)
	case "serve-mix":
		return serveMix(b.ctx, e, b.seed, stream, d, b.tr)
	default:
		return distChain(b.ctx, e, b.seed, stream, d, b.tr)
	}
}

// measure runs the workload's loop for d in slices, and returns it with
// the loop whose serve cache hits and misses are reported: serve-mix's
// own, or for the other workloads the serve-mix probe interleaved with
// theirs.
func (b *benchRun) measure(e *env, stream uint64, d time.Duration) (own, served *loopResult) {
	own, served = &loopResult{}, &loopResult{}
	slice := d / slices
	for i := uint64(0); i < slices; i++ {
		b.host.sample()
		own.addSlice(b.loop(e, stream+1000*i, slice))
		if b.wl != "serve-mix" {
			probe := time.Duration(float64(slice) * probeShare)
			served.addSlice(serveMix(b.ctx, e, b.seed, stream+1000*i+500, probe, b.tr))
		}
	}
	b.count(own)
	if b.wl == "serve-mix" {
		return own, own
	}
	b.count(served)
	return own, served
}

// count adds a loop's requests and its output checks to the run's
// failure accounting.
func (b *benchRun) count(r *loopResult) {
	b.attempted += r.attempted
	b.failed += r.failed
	for _, verify := range r.verify {
		b.failed += verify(b.ctx)
	}
}

// checkFixed re-runs the fixed list and adds every set-up check.
func (b *benchRun) checkFixed(e *env) {
	checked, bad := e.secondPass(b.ctx)
	b.attempted += checked + e.checked
	b.failed += bad + e.mismatches
}

func (b *benchRun) untraced(rep *report, d time.Duration) error {
	e, times, err := setupMedian(b.ctx, b.seed, b.tr, &b.host)
	if err != nil {
		return err
	}
	defer e.fleet.close()
	own, served := b.measure(e, streamLoop, d)
	b.host.sample()
	f := b.host.factor()
	fmt.Printf("host factor %.4f: kernel median %.2f ms over %d samples, reference %v; wall-clock metrics are divided by it\n",
		f, f*float64(kernelRef)/1e6, len(b.host.samples), kernelRef)
	raw := quantile(times, 0.5)
	rep.add("setup_s", raw/f, "s", len(times), fmt.Sprintf("median of set-ups, raw %.4g s", raw))
	loopMetrics(rep, own, f)
	servedMetrics(rep, served, b.wl, f)
	e.exact(rep)
	b.checkFixed(e)
	return nil
}

// loopMetrics adds the metrics of the workload's own timed loop, with
// wall-clock values divided by the host factor f.
func loopMetrics(rep *report, own *loopResult, f float64) {
	n := len(own.all)
	win := func(name string, q float64) {
		v, k := windowed(own.all, q, len(own.walls))
		rep.add(name, v/f, "ms", n, fmt.Sprintf("trimmed mean of %d windows, raw %.4g ms", k, v))
	}
	rate := windowRate(own.all, own.walls)
	rep.add("campaigns_per_s", rate*f, "1/s", n,
		fmt.Sprintf("trimmed mean of %d slices over %.2f s, raw %.4g/s", len(own.walls), own.wall().Seconds(), rate))
	win("campaign_ms_p50", 0.5)
	win("campaign_ms_p90", 0.9)
	rep.add("alloc_kb_per_campaign", float64(own.allocBytes)/1024/float64(max(n, 1)), "KiB", n, "whole process")
}

// servedMetrics adds the serve cache's hit and miss latencies, divided
// by the host factor f.
func servedMetrics(rep *report, served *loopResult, wl string, f float64) {
	src := "serve-mix loop"
	if wl != "serve-mix" {
		src = "serve-mix probe between loop slices"
	}
	win := func(name string, xs []sample, q float64) {
		v, k := windowed(xs, q, len(served.walls))
		rep.add(name, v/f, "ms", len(xs), fmt.Sprintf("%s, trimmed mean of %d windows, raw %.4g ms", src, k, v))
	}
	win("hit_ms_p50", served.hit, 0.5)
	win("hit_ms_p99", served.hit, 0.99)
	win("miss_ms_p50", served.miss, 0.5)
	win("miss_ms_p90", served.miss, 0.9)
}

func (b *benchRun) traced(rep *report, d time.Duration) error {
	// The coordinator dispatches nodes through the default client.
	http.DefaultClient.Transport = &transportTap{next: http.DefaultTransport, tr: b.tr}
	e, err := setup(b.ctx, b.seed, b.tr, true)
	if err != nil {
		return err
	}
	defer e.fleet.close()
	cl := newClient()
	defer cl.CloseIdleConnections()

	plain, _ := b.measure(e, streamLoop, d/2)
	fPlain, traced0 := b.host.factor(), len(b.host.samples)

	b.tr.on.Store(true)
	before, err := e.fleet.stats(cl)
	if err != nil {
		return err
	}
	own, served := b.measure(e, streamTraced, d/2)
	lr, err := ladder(b.ctx, e, b.tr)
	if err != nil {
		return err
	}
	specBytes, outcomeBytes, err := replayNodes(b.ctx, e.fleet, b.tr)
	if err != nil {
		return err
	}
	after, err := e.fleet.stats(cl)
	if err != nil {
		return err
	}
	b.tr.on.Store(false)
	b.checkFixed(e)

	var untr, tr report
	// Each half is divided by the host factor of its own slices, so that
	// a change in host speed between the halves does not read as tracing
	// overhead.
	loopMetrics(&untr, plain, fPlain)
	loopMetrics(&tr, own, b.host.factorSince(traced0))
	untr.print("untraced")
	tr.print("traced")
	p0, _ := untr.get("campaign_ms_p50")
	p1, _ := tr.get("campaign_ms_p50")
	overhead := (p1.value/p0.value - 1) * 100
	fmt.Printf("tracing overhead: campaign_ms_p50 %+.2f%% (traced %.4g ms, n=%d; untraced %.4g ms, n=%d)\n",
		overhead, p1.value, p1.n, p0.value, p0.n)

	stats := b.tr.summarize()
	fmt.Printf("%-6s %-26s %8s %12s %12s %12s\n", "span", "name", "n", "p50_us", "total_ms", "self_ms")
	for _, s := range stats {
		fmt.Printf("%-6s %-26s %8d %12.2f %12.2f %12.2f\n", "span", s.name, s.n, s.p50/1e3,
			float64(s.total)/1e6, float64(s.own)/1e6)
	}
	layerMetrics(rep, b.tr, lr, served, after.combine(before, -1), specBytes, outcomeBytes)
	rep.add("trace.overhead_pct", overhead, "%", p1.n, "traced vs untraced campaign_ms_p50")
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.jsonl", b.wl, b.seed))
	if err := b.tr.writeSpans(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// layerMetrics adds every per-layer metric from the recorded spans, the
// ladder's outcome counts and the daemons' counter deltas.
func layerMetrics(rep *report, tr *tracer, lr *ladderResult, served *loopResult, st daemonStats, specBytes, outcomeBytes []float64) {
	p50 := func(metric, span string, scale float64, unit string) float64 {
		d := tr.durations(span)
		v := quantile(d, 0.5) / scale
		rep.add(metric, v, unit, len(d), "p50 of "+span)
		return v
	}
	count := func(metric string, v float64, note string) {
		rep.add(metric, v, "count", lr.campaigns, note)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50("campaign.parse_us", "campaign.parse", 1e3, "us")
	p50("campaign.options_us", "campaign.options", 1e3, "us")
	p50("session.new_us", "session.new", 1e3, "us")
	p50("session.fingerprint_us", "session.fingerprint", 1e3, "us")
	p50("session.run_ms", "session.run", 1e6, "ms")
	p50("session.result_encode_us", "session.result_encode", 1e3, "us")
	p50("workload.plan_us", "workload.plan", 1e3, "us")
	count("workload.plan_nodes", ratio(float64(lr.planNodes), float64(lr.campaigns)), "mean per campaign")
	count("workload.plan_cases", ratio(float64(lr.planCases), float64(lr.campaigns)), "mean per campaign")
	p50("sweep.runplan_ms", "sweep.runplan", 1e6, "ms")
	p50("sweep.node_ms_p50", "sweep.node", 1e6, "ms")
	rep.add("sweep.critical_path_ms", quantile(lr.critical, 0.5)/1e6, "ms", len(lr.critical), "p50 per campaign")
	rep.add("sweep.parallelism", ratio(float64(lr.nodeBusy), float64(lr.runplanWall)), "x", lr.campaigns, "node busy time / RunPlan wall time")
	count("tuner.configs_evaluated", float64(lr.configs), "fixed list")
	count("tuner.configs_pruned", float64(lr.pruned), "fixed list")
	rep.add("tuner.prune_ratio", ratio(float64(lr.pruned), float64(lr.configs)), "x", lr.configs, "pruned / evaluated")
	count("tuner.samples_total", float64(lr.samples), "fixed list")
	p50("evaluate.us_p50", "evaluate", 1e3, "us")
	rep.add("evaluate.samples_per_case", ratio(float64(lr.samples), float64(lr.configs)), "count", lr.configs, "")
	count("evaluate.inner_stops", float64(lr.innerStops), "fixed list")
	for _, m := range []string{"simblas", "simstream", "simspmv", "simstencil"} {
		rep.add(m+".step_ns", quantile(lr.stepNs[m], 0.5), "ns", len(lr.stepNs[m]), fmt.Sprintf("p50 of %d-step batches", stepBatch))
	}
	count("sim.steps", float64(lr.steps), "measured + warm-up steps, fixed list")

	hit, _ := windowed(served.hit, 0.5, len(served.walls))
	hit *= 1e3
	comp := quantile(lr.hitComponents, 0.5) / 1e3
	rep.add("serve.handler_us", hit-comp, "us", len(served.hit), fmt.Sprintf("hit p50 %.1f us - in-process hit components p50 %.1f us", hit, comp))
	count("cache.hits", st.Cache.Hits, "both serve daemons")
	count("cache.misses", st.Cache.Misses, "both serve daemons")
	rep.add("cache.hit_ratio", ratio(st.Cache.Hits, st.Cache.Hits+st.Cache.Misses), "x", int(st.Cache.Hits+st.Cache.Misses), "")
	count("cache.evictions", st.Cache.Evictions, "")
	rep.add("admit.wait_ms", ratio(st.waitSum, st.waitCount)*1e3, "ms", int(st.waitCount), "mean admission wait")
	count("admit.shed", st.Admission.ShedQueueFull+st.Admission.ShedClientQuota, "")
	count("budget.contended", st.Budget.Contended, "")
	rt := p50("dist.node_roundtrip_ms_p50", "dist.node_roundtrip", 1e6, "ms")
	ex := p50("dist.node_exec_ms_p50", "dist.node_exec", 1e6, "ms")
	rep.add("dist.node_overhead_ms", rt-ex, "ms", len(tr.durations("dist.node_roundtrip")), "round trip p50 - exec p50")
	p50("dist.worker_resolve_us", "dist.worker_resolve", 1e3, "us")
	rep.add("dist.node_spec_bytes", ratio(sum(specBytes), float64(len(specBytes))), "bytes", len(specBytes), "mean")
	rep.add("dist.outcome_bytes", ratio(sum(outcomeBytes), float64(len(outcomeBytes))), "bytes", len(outcomeBytes), "mean")
	dd := st.Dist.Dispatch
	count("dist.dispatched", dd.Dispatched, "")
	count("dist.requeued", dd.Requeued, "")
	count("dist.deduped", dd.Deduped, "")
	count("dist.local_fallback", dd.LocalFallback, "")
	count("dist.worker_errors", dd.WorkerErrors, "")
	if lr.replans > 0 {
		fmt.Printf("warning: %d ladder campaign(s) replanned differently from Session.Run\n", lr.replans)
	}
}
