package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	distv1 "rooftune/dist/v1"
	"rooftune/internal/dist"
	"rooftune/internal/serve"
	servev1 "rooftune/serve/v1"
)

// loopback is one in-process HTTP server on 127.0.0.1.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return lb, nil
}

// close stops the server and waits for its accept loop to exit.
func (lb *loopback) close() {
	_ = lb.srv.Close()
	<-lb.done
}

// fleet is the serving tier every workload sets up: a serve daemon with
// a local executor, and a serve daemon acting as the distributed
// coordinator in front of two loopback workers.
type fleet struct {
	cancel  context.CancelFunc
	serve   *loopback
	coord   *loopback
	workers []*loopback
	taps    []*workerTap // set when the fleet is tapped for tracing
}

// Serving-tier sizing. The serve cache holds every entry a run can
// write, so no warmed entry is evicted. One run slot with a short queue
// makes the two serve-mix clients' concurrent misses queue, never shed.
const (
	cacheEntries  = 1 << 16
	serveMaxJobs  = 1
	serveQueue    = 4
	workerCount   = 2
	workerSlots   = 1
	hostCores     = 2
	clientTimeout = 60 * time.Second
)

// startFleet starts the fleet. tapped wraps each worker's handler in a
// workerTap recording into tr.
func startFleet(tr *tracer, tapped bool) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	fail := func(err error) (*fleet, error) {
		f.close()
		return nil, err
	}
	srv, err := serve.New(ctx, serve.Config{
		CacheEntries: cacheEntries,
		Parallelism:  hostCores,
		MaxJobs:      serveMaxJobs,
		QueueDepth:   serveQueue,
	})
	if err != nil {
		return fail(err)
	}
	if f.serve, err = listen(srv.Handler()); err != nil {
		return fail(err)
	}
	var urls []string
	for i := 0; i < workerCount; i++ {
		w := dist.NewWorker(ctx, dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Parallelism: workerSlots})
		var h http.Handler = w.Handler()
		if tapped {
			tap := &workerTap{next: h, tr: tr}
			f.taps = append(f.taps, tap)
			h = tap
		}
		lb, err := listen(h)
		if err != nil {
			return fail(err)
		}
		f.workers = append(f.workers, lb)
		urls = append(urls, lb.url)
	}
	coord, err := serve.New(ctx, serve.Config{
		CacheEntries: cacheEntries,
		Parallelism:  hostCores,
		Workers:      urls,
	})
	if err != nil {
		return fail(err)
	}
	if f.coord, err = listen(coord.Handler()); err != nil {
		return fail(err)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, lb := range append([]*loopback{f.serve, f.coord}, f.workers...) {
		if lb != nil {
			lb.close()
		}
	}
	f.cancel()
}

// newClient returns an HTTP client with its own single keep-alive
// connection, as one caller of the daemon would hold.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// tune posts one campaign to a daemon's synchronous endpoint and returns
// the response body and its cache disposition. A non-2xx answer
// (including an admission shed) is an error.
func tune(ctx context.Context, cl *http.Client, base string, body []byte) ([]byte, string, error) {
	ctx, cancel := context.WithTimeout(ctx, clientTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/tune", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header.Get(servev1.CacheHeader), nil
}

// daemonStats is the subset of a serve daemon's public /v1/stats and
// /metrics the per-layer metrics read.
type daemonStats struct {
	Cache struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		Evictions float64 `json:"evictions"`
	} `json:"cache"`
	Admission struct {
		ShedQueueFull   float64 `json:"shedQueueFull"`
		ShedClientQuota float64 `json:"shedClientQuota"`
	} `json:"admission"`
	Budget struct {
		Contended float64 `json:"contended"`
	} `json:"budget"`
	Dist struct {
		Dispatch struct {
			Dispatched, Requeued, Deduped, LocalFallback, WorkerErrors float64
		} `json:"dispatch"`
	} `json:"dist"`
	waitSum, waitCount float64
}

func scrape(cl *http.Client, base string) (daemonStats, error) {
	var st daemonStats
	resp, err := cl.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, fmt.Errorf("decode %s/v1/stats: %w", base, err)
	}
	resp, err = cl.Get(base + "/metrics")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "roofserve_admission_wait_seconds_sum":
			st.waitSum, err = strconv.ParseFloat(val, 64)
		case "roofserve_admission_wait_seconds_count":
			st.waitCount, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return st, fmt.Errorf("parse %s: %w", name, err)
		}
	}
	return st, sc.Err()
}

// combine returns the counters s + sign*o.
func (s daemonStats) combine(o daemonStats, sign float64) daemonStats {
	d := s
	for _, f := range []struct {
		dst *float64
		v   float64
	}{
		{&d.Cache.Hits, o.Cache.Hits},
		{&d.Cache.Misses, o.Cache.Misses},
		{&d.Cache.Evictions, o.Cache.Evictions},
		{&d.Admission.ShedQueueFull, o.Admission.ShedQueueFull},
		{&d.Admission.ShedClientQuota, o.Admission.ShedClientQuota},
		{&d.Budget.Contended, o.Budget.Contended},
		{&d.Dist.Dispatch.Dispatched, o.Dist.Dispatch.Dispatched},
		{&d.Dist.Dispatch.Requeued, o.Dist.Dispatch.Requeued},
		{&d.Dist.Dispatch.Deduped, o.Dist.Dispatch.Deduped},
		{&d.Dist.Dispatch.LocalFallback, o.Dist.Dispatch.LocalFallback},
		{&d.Dist.Dispatch.WorkerErrors, o.Dist.Dispatch.WorkerErrors},
		{&d.waitSum, o.waitSum},
		{&d.waitCount, o.waitCount},
	} {
		*f.dst += sign * f.v
	}
	return d
}

// stats sums the counters of both serve daemons.
func (f *fleet) stats(cl *http.Client) (daemonStats, error) {
	a, err := scrape(cl, f.serve.url)
	if err != nil {
		return a, err
	}
	b, err := scrape(cl, f.coord.url)
	if err != nil {
		return a, err
	}
	return a.combine(b, 1), nil
}

// nodeRecord is one node spec a worker received while tracing was on.
type nodeRecord struct {
	campaign  []byte
	nodeID    string
	seedValue float64
}

// workerTap wraps a worker's handler to record, per node run, the spec
// and outcome sizes, the worker-side handling span and the spec itself
// (replayed in process afterwards to time Session.RunNode).
type workerTap struct {
	next http.Handler
	tr   *tracer

	mu           sync.Mutex
	nodes        []nodeRecord
	specBytes    []float64
	outcomeBytes []float64
}

func (t *workerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != distv1.PathRun || !t.tr.enabled() {
		t.next.ServeHTTP(w, r)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(data))
	var spec distv1.NodeSpec
	_ = json.Unmarshal(data, &spec) // the worker itself rejects a bad spec
	trace, root := t.tr.lookup(spec.Campaign)
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	t.tr.record("dist.worker_handle", trace, root, start, time.Now())
	t.mu.Lock()
	t.nodes = append(t.nodes, nodeRecord{campaign: spec.Campaign, nodeID: spec.NodeID, seedValue: spec.SeedValue})
	t.specBytes = append(t.specBytes, float64(len(data)))
	t.outcomeBytes = append(t.outcomeBytes, float64(cw.n))
	t.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// transportTap times the coordinator's node dispatches: the round trip
// from sending a node spec to a worker until its answer's headers
// arrive (a worker writes its answer only once the node finished).
type transportTap struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *transportTap) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != distv1.PathRun || !t.tr.enabled() {
		return t.next.RoundTrip(r)
	}
	var trace, root int64
	if r.GetBody != nil {
		if b, err := r.GetBody(); err == nil {
			var spec distv1.NodeSpec
			if json.NewDecoder(b).Decode(&spec) == nil {
				trace, root = t.tr.lookup(spec.Campaign)
			}
		}
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.tr.record("dist.node_roundtrip", trace, root, start, time.Now())
	return resp, err
}
