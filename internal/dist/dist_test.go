package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rooftune"
	distv1 "rooftune/dist/v1"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/serve/metrics"
	servev1 "rooftune/serve/v1"
)

// chainedCampaign is the acceptance campaign: a chained TRIAD
// residency-level sweep, so the plan graph has seed edges (L2 seeds L3
// seeds DRAM) and the distributed schedule must honor the dependency
// order and seed values exactly to stay byte-identical.
const chainedCampaign = `{
	"system": "Gold 6148",
	"workloads": ["triad"],
	"triadLevels": ["L2", "L3", "DRAM"],
	"chain": true,
	"triadLoBytes": 16384,
	"triadHiBytes": 268435456
}`

// parseCampaign resolves the JSON campaign into (wire form, session
// fingerprint, options), exactly as the serving tier resolves it before
// handing it to the coordinator.
func parseCampaign(t *testing.T, src string) (servev1.Campaign, string, []rooftune.Option) {
	t.Helper()
	camp, err := servev1.ParseCampaign(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := campaign.Options(camp)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := campaign.NewMemo(1).Fingerprint(camp)
	if err != nil {
		t.Fatal(err)
	}
	return camp, fp, opts
}

// localRun is the reference: the same campaign run in-process.
func localRun(t *testing.T, src string) *rooftune.Result {
	t.Helper()
	_, _, opts := parseCampaign(t, src)
	sess, err := rooftune.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testWorker is one in-process roofworkerd: the real Worker behind an
// httptest server, optionally wrapped in a failure-injection shim.
type testWorker struct {
	w  *Worker
	ts *httptest.Server
}

// startWorker launches a worker; shim, when non-nil, wraps the handler
// (failure injection: kill, delay).
func startWorker(t *testing.T, name string, shim func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	w := NewWorker(context.Background(), WorkerConfig{Name: name, Parallelism: 2})
	h := http.Handler(w.Handler())
	if shim != nil {
		h = shim(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &testWorker{w: w, ts: ts}
}

// newTestCoordinator builds a coordinator over the given workers with a
// fresh probe view established, short heartbeats and the given lease.
func newTestCoordinator(t *testing.T, lease time.Duration, workers ...*testWorker) *Coordinator {
	t.Helper()
	urls := make([]string, len(workers))
	for i, tw := range workers {
		urls[i] = tw.ts.URL
	}
	c := NewCoordinator(Config{
		Workers:   urls,
		Heartbeat: 100 * time.Millisecond,
		Lease:     lease,
		Metrics:   metrics.NewSet(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	c.Start(ctx)
	return c
}

// TestDistByteIdenticalToLocal is the tentpole acceptance: a chained
// multi-node campaign through the coordinator and two real HTTP workers
// produces a Result byte-identical to an in-process Run — same Summary,
// same everything.
func TestDistByteIdenticalToLocal(t *testing.T) {
	w1 := startWorker(t, "w1", nil)
	w2 := startWorker(t, "w2", nil)
	c := newTestCoordinator(t, time.Minute, w1, w2)

	camp, fp, opts := parseCampaign(t, chainedCampaign)
	res, err := c.Run(context.Background(), camp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := localRun(t, chainedCampaign)
	if res.Summary() != local.Summary() {
		t.Fatalf("distributed summary differs from local:\ndist:\n%s\nlocal:\n%s", res.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(*res, *local) {
		t.Fatalf("distributed Result differs from local:\ndist  %+v\nlocal %+v", *res, *local)
	}
	if st := c.Stats(); st.Dispatched == 0 {
		t.Fatal("nothing dispatched — the run did not go through the workers")
	} else if st.LocalFallback != 0 {
		t.Fatalf("%d local fallbacks with a healthy fleet", st.LocalFallback)
	}
	if w1.w.nodesRun.Load()+w2.w.nodesRun.Load() == 0 {
		t.Fatal("no worker measured a node")
	}
}

// killShim simulates a worker killed mid-sweep: it answers normally
// (heartbeats enroll it) until the first node dispatch arrives, then
// drops that connection and every later one with no coherent response.
type killShim struct {
	next   http.Handler
	killed atomic.Bool
}

func (k *killShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.killed.Load() {
		panic(http.ErrAbortHandler)
	}
	if r.URL.Path == distv1.PathRun {
		k.killed.Store(true)
		panic(http.ErrAbortHandler)
	}
	k.next.ServeHTTP(w, r)
}

// TestWorkerKillMidSweepRequeues: a worker dies on its first dispatched
// node (connection aborted, no response). The coordinator marks it
// dead, requeues onto the surviving worker, and the final Result is
// byte-identical to an uninterrupted local run.
func TestWorkerKillMidSweepRequeues(t *testing.T) {
	w1 := startWorker(t, "w1", func(next http.Handler) http.Handler {
		return &killShim{next: next}
	})
	w2 := startWorker(t, "w2", nil)
	c := newTestCoordinator(t, time.Minute, w1, w2)

	camp, fp, opts := parseCampaign(t, chainedCampaign)
	res, err := c.Run(context.Background(), camp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := localRun(t, chainedCampaign)
	if res.Summary() != local.Summary() {
		t.Fatalf("summary after worker kill differs from local:\ndist:\n%s\nlocal:\n%s", res.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(*res, *local) {
		t.Fatal("Result after worker kill differs from uninterrupted local run")
	}
	st := c.Stats()
	if st.Requeued == 0 {
		t.Fatalf("worker died but nothing was requeued: %+v", st)
	}
	if st.WorkerErrors == 0 {
		t.Fatalf("worker died but no worker error recorded: %+v", st)
	}
	if w1.w.nodesRun.Load() != 0 {
		t.Fatalf("the killed worker measured %d nodes", w1.w.nodesRun.Load())
	}
}

// delayShim holds every run request for d before delegating —
// a healthy-but-slow worker that outlives its leases.
type delayShim struct {
	next http.Handler
	d    time.Duration
}

func (s *delayShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == distv1.PathRun {
		time.Sleep(s.d)
	}
	s.next.ServeHTTP(w, r)
}

// TestLeaseExpiryDuplicateCompletionDedupe: a slow worker's lease
// expires, the node is requeued to a fast worker (which wins), and the
// slow worker's late completion is deduped — dropped without touching
// the Result, which stays byte-identical to local.
func TestLeaseExpiryDuplicateCompletionDedupe(t *testing.T) {
	slow := startWorker(t, "slow", func(next http.Handler) http.Handler {
		return &delayShim{next: next, d: 400 * time.Millisecond}
	})
	fast := startWorker(t, "fast", nil)
	c := newTestCoordinator(t, 50*time.Millisecond, slow, fast)

	camp, fp, opts := parseCampaign(t, chainedCampaign)
	res, err := c.Run(context.Background(), camp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := localRun(t, chainedCampaign)
	if res.Summary() != local.Summary() {
		t.Fatalf("summary with duplicate completions differs from local:\ndist:\n%s\nlocal:\n%s", res.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(*res, *local) {
		t.Fatal("Result with duplicate completions differs from local run")
	}
	st := c.Stats()
	if st.LeaseExpired == 0 {
		t.Fatalf("no lease expired against a %v-delayed worker: %+v", 400*time.Millisecond, st)
	}
	if st.Requeued == 0 {
		t.Fatalf("lease expired but nothing requeued: %+v", st)
	}
	// Give the slow attempts time to land so the dedupe path executes.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Deduped == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats().Deduped == 0 {
		t.Fatalf("slow worker's late completions were never deduped: %+v", c.Stats())
	}
}

// TestCoordinatorRestartInFlightLeases: a coordinator dies (context
// cancelled) while nodes are in flight; a fresh coordinator replays the
// sweep against the same fleet. In-flight nodes are joined and
// completed ones answered from the workers' completion caches — the
// replay is correct and byte-identical to local.
func TestCoordinatorRestartInFlightLeases(t *testing.T) {
	w1 := startWorker(t, "w1", nil)
	w2 := startWorker(t, "w2", nil)

	camp, fp, opts := parseCampaign(t, chainedCampaign)

	// First coordinator: cancelled almost immediately, mid-dispatch.
	c1 := newTestCoordinator(t, time.Minute, w1, w2)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c1.Run(ctx1, camp, fp, opts)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel1()
	<-done

	// Second coordinator: same fleet, fresh state. Every node the first
	// coordinator managed to start is either still running (joined) or
	// cached (replayed) on the workers.
	c2 := newTestCoordinator(t, time.Minute, w1, w2)
	res, err := c2.Run(context.Background(), camp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := localRun(t, chainedCampaign)
	if res.Summary() != local.Summary() {
		t.Fatalf("summary after coordinator restart differs from local:\ndist:\n%s\nlocal:\n%s", res.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(*res, *local) {
		t.Fatal("Result after coordinator restart differs from local run")
	}
	// Idempotency: replaying the whole campaign a second time measures
	// nothing — every node answers from the completion caches.
	before := w1.w.nodesRun.Load() + w2.w.nodesRun.Load()
	c3 := newTestCoordinator(t, time.Minute, w1, w2)
	res2, err := c3.Run(context.Background(), camp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res2, *local) {
		t.Fatal("replayed Result differs from local run")
	}
	if after := w1.w.nodesRun.Load() + w2.w.nodesRun.Load(); after != before {
		t.Fatalf("replay re-measured nodes: %d fresh runs", after-before)
	}
}

// TestLocalFallbackNoWorkers: with the whole fleet dead the coordinator
// degrades to local execution — the sweep completes in-process and the
// Result is still byte-identical to a plain Run.
func TestLocalFallbackNoWorkers(t *testing.T) {
	// A worker that is down from the start: reserve a URL, then close.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c := NewCoordinator(Config{
		Workers:   []string{dead.URL},
		Heartbeat: 50 * time.Millisecond,
		Lease:     time.Minute,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)

	camp, fp, opts := parseCampaign(t, chainedCampaign)
	res, err := c.Run(context.Background(), camp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	local := localRun(t, chainedCampaign)
	if res.Summary() != local.Summary() {
		t.Fatalf("fallback summary differs from local:\ndist:\n%s\nlocal:\n%s", res.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(*res, *local) {
		t.Fatal("fallback Result differs from local run")
	}
	if st := c.Stats(); st.LocalFallback == 0 {
		t.Fatalf("dead fleet but no local fallback recorded: %+v", st)
	}
	if live, _ := c.Workers(); live != 0 {
		t.Fatalf("dead fleet reports %d live workers", live)
	}
}

// TestBoundPushUnknownFingerprint: pushing a bound for a node the
// worker is not running acks Applied=false and is harmless — the
// protocol treats missed pushes as lost pruning opportunity only.
func TestBoundPushUnknownFingerprint(t *testing.T) {
	w := startWorker(t, "w", nil)
	body := strings.NewReader(`{"schema":"` + distv1.Schema + `","fingerprint":"nope","value":42}`)
	resp, err := http.Post(w.ts.URL+distv1.PathBound, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bound push status %d", resp.StatusCode)
	}
	var ack distv1.BoundAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Applied {
		t.Fatal("bound for unknown fingerprint reported Applied=true")
	}
}

// TestFingerprintMismatchRejected: a spec whose fingerprint does not
// match what the worker resolves is refused — running it would poison
// the sweep with a wrong-but-plausible outcome.
func TestFingerprintMismatchRejected(t *testing.T) {
	w := startWorker(t, "w", nil)
	spec := `{"schema":"` + distv1.Schema + `","campaign":` + chainedCampaign + `,"nodeId":"triad/L2","fingerprint":"bogus"}`
	resp, err := http.Post(w.ts.URL+distv1.PathRun, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fingerprint: status %d, want 400", resp.StatusCode)
	}
}

// TestWarmMemoStillRejectsTamperedFingerprint: a worker whose campaign
// memo already holds the campaign (it just ran one of its nodes) still
// verifies every spec's fingerprint — the memo skips re-resolution,
// never the check.
func TestWarmMemoStillRejectsTamperedFingerprint(t *testing.T) {
	w := startWorker(t, "w", nil)
	camp, campFP, _ := parseCampaign(t, chainedCampaign)
	campJSON, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	post := func(fp string) (int, []byte) {
		t.Helper()
		spec, err := json.Marshal(distv1.NodeSpec{
			Schema: distv1.Schema, Campaign: campJSON, NodeID: "triad/DRAM/1s", Fingerprint: fp,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(w.ts.URL+distv1.PathRun, "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	good := distv1.NodeFingerprint(campFP, "triad/DRAM/1s", 0)
	if status, body := post(good); status != http.StatusOK {
		t.Fatalf("valid spec: status %d: %s", status, body)
	}
	if n := w.w.memo.Len(); n != 1 {
		t.Fatalf("worker memo holds %d campaigns after one node, want 1", n)
	}
	tampered := []byte(good)
	tampered[0] ^= 1
	status, body := post(string(tampered))
	if status != http.StatusBadRequest {
		t.Fatalf("tampered fingerprint with a warm memo: status %d, want 400: %s", status, body)
	}
	var env distv1.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != distv1.CodeBadNode {
		t.Fatalf("tampered fingerprint: error code %q, want %q", env.Error.Code, distv1.CodeBadNode)
	}
	if got := w.w.nodesRun.Load(); got != 1 {
		t.Fatalf("worker measured %d nodes, want only the valid one", got)
	}
}
