// Package dist is the distributed sweep tier: a coordinator that fans a
// campaign's plan-graph nodes out to remote worker processes over the
// versioned rooftune/dist/v1 contract, and the worker server that
// executes them.
//
// The design premise is that RunPlan already has the right shape for
// distribution — a topological schedule with seed edges and
// per-outcome provenance — so the coordinator does not reimplement it:
// it drives Session.RunDist, which executes the normal plan schedule
// and delegates each ready node to the coordinator's dispatch hook with
// exactly the seed a local run would have applied. A dependent node is
// therefore dispatched only after its dependency's measured winner
// arrived, and the merged Result — winners, warnings, search-cost
// accounting, Summary — is byte-identical to a local RunPlan's.
//
// Robustness is structural rather than best-effort:
//
//   - Workers enroll via heartbeat (Pool); a worker that stops
//     answering is marked dead and receives no new nodes.
//   - Every dispatch carries a lease. A node still unanswered when the
//     lease expires is requeued to another live worker without
//     cancelling the first attempt — the slow worker may yet answer.
//   - Dispatch is idempotent by node fingerprint
//     (distv1.NodeFingerprint): workers cache completions, so a
//     requeued or replayed node re-measures nothing, and duplicate
//     completions dedupe on the coordinator (first answer wins, the
//     rest are counted and dropped).
//   - Incumbent bounds are shared asynchronously mid-sweep using the
//     monotone CAS-max protocol (rooftune.SharedBound), which is
//     order-insensitive — late, duplicate or reordered pushes are
//     harmless by construction.
//   - When no live worker remains, nodes fall back to local execution
//     (rooftune.ErrExecLocal), so a coordinator with a dead fleet
//     degrades to exactly the single-process daemon.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	distv1 "rooftune/dist/v1"
)

// workerState is a pool member's health as of the last probe.
type workerState int

const (
	// workerUnknown: never successfully probed yet.
	workerUnknown workerState = iota
	// workerLive: the last health probe answered.
	workerLive
	// workerDead: the last health probe (or a dispatch) failed.
	workerDead
)

// workerRef is one enrolled worker. All fields are guarded by Pool.mu.
type workerRef struct {
	url   string
	name  string // self-reported on the last successful probe
	state workerState
}

// Pool tracks the worker fleet: a fixed URL set enrolled and
// health-checked via the dist/v1 heartbeat. Dispatch places each node
// on the live worker its fingerprint ranks highest (rendezvous hashing
// over fleet positions), so every dispatch of one node — from this
// coordinator or a restarted one — reaches the worker that is running
// it or holds its completion; a failed probe or dispatch marks the
// worker dead until a later probe revives it.
type Pool struct {
	client    *http.Client
	heartbeat time.Duration

	mu      sync.Mutex
	workers []*workerRef
}

// NewPool builds a pool over the worker URLs. heartbeat is the probe
// interval (<=0: 2s); client is the HTTP client probes and dispatches
// share (nil: http.DefaultClient — the pool relies on per-request
// contexts, not a client-wide timeout, because node runs are
// long-polls).
func NewPool(urls []string, heartbeat time.Duration, client *http.Client) *Pool {
	if heartbeat <= 0 {
		heartbeat = 2 * time.Second
	}
	if client == nil {
		client = http.DefaultClient
	}
	p := &Pool{client: client, heartbeat: heartbeat}
	for _, u := range urls {
		p.workers = append(p.workers, &workerRef{url: u})
	}
	return p
}

// Start launches the heartbeat loop: an immediate probe of every
// worker, then one sweep per interval until ctx is cancelled.
func (p *Pool) Start(ctx context.Context) {
	//rooflint:allow nogoroutine -- the pool's heartbeat prober; bounded by ctx (the daemon's base context) and holds no resources needing a join
	go func() {
		p.CheckNow(ctx)
		t := time.NewTicker(p.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.CheckNow(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// CheckNow probes every worker once, concurrently, and updates the
// pool's view. It returns after every probe resolved, so callers (the
// daemon at startup, tests) can establish a fresh view synchronously.
func (p *Pool) CheckNow(ctx context.Context) {
	p.mu.Lock()
	urls := make([]string, len(p.workers))
	for i, w := range p.workers {
		urls[i] = w.url
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		//rooflint:allow nogoroutine -- per-worker health probe; joined by wg.Wait below
		go func(u string) {
			defer wg.Done()
			hb, err := p.probe(ctx, u)
			p.mu.Lock()
			defer p.mu.Unlock()
			for _, w := range p.workers {
				if w.url != u {
					continue
				}
				if err != nil {
					w.state = workerDead
				} else {
					w.state = workerLive
					w.name = hb.Worker
				}
			}
		}(u)
	}
	wg.Wait()
}

// probe fetches one worker's heartbeat under a bounded deadline (the
// heartbeat interval), so a hung worker cannot stall the sweep.
func (p *Pool) probe(ctx context.Context, url string) (distv1.Heartbeat, error) {
	var hb distv1.Heartbeat
	ctx, cancel := context.WithTimeout(ctx, p.heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+distv1.PathHealth, nil)
	if err != nil {
		return hb, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return hb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return hb, fmt.Errorf("dist: worker %s health: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		return hb, fmt.Errorf("dist: worker %s health: %w", url, err)
	}
	return hb, nil
}

// pick returns the live worker not in exclude that ranks highest for
// the node fingerprint fp. The ranking depends only on fp and each
// worker's position in the configured fleet, so repeated, replayed and
// post-restart dispatches of one node (by coordinators configured with
// the same worker list) agree on its worker and hit that worker's
// running-node join or completion cache instead of measuring again;
// distinct nodes spread across the fleet. ok is false when no live
// worker remains — the caller falls back to local execution.
func (p *Pool) pick(fp string, exclude map[string]bool) (url string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		best      *workerRef
		bestScore uint64
	)
	for slot, w := range p.workers {
		if w.state != workerLive || exclude[w.url] {
			continue
		}
		if score := rendezvous(fp, slot); best == nil || score > bestScore {
			best, bestScore = w, score
		}
	}
	if best == nil {
		return "", false
	}
	return best.url, true
}

// rendezvous scores a (node, fleet slot) pair: FNV-1a over the node
// fingerprint and the slot, then a 64-bit finalizer so adjacent slots
// rank independently.
func rendezvous(fp string, slot int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(fp); i++ {
		h = (h ^ uint64(fp[i])) * prime
	}
	h = (h ^ uint64(slot)) * prime
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// markDead records a dispatch-observed failure: the worker receives no
// new nodes until a heartbeat revives it.
func (p *Pool) markDead(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if w.url == url {
			w.state = workerDead
		}
	}
}

// size is the enrolled fleet size (live or not) — the upper bound on
// attempts any one node can accumulate, since requeue never revisits a
// tried worker.
func (p *Pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Live counts workers the pool currently considers healthy.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.state == workerLive {
			n++
		}
	}
	return n
}

// Dead counts workers the pool currently considers failed (unknown,
// never-probed workers are neither live nor dead).
func (p *Pool) Dead() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.state == workerDead {
			n++
		}
	}
	return n
}
