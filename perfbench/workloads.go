package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rooftune"
	"rooftune/internal/serve/campaign"
	servev1 "rooftune/serve/v1"
)

// loopResult is what a closed loop measured: every completed request's
// latency, and separately the serve cache's two request kinds. A run
// measures in slices; each slice's samples carry its index.
type loopResult struct {
	all, hit, miss []sample
	attempted      int
	failed         int
	walls          []time.Duration // one per slice
	allocBytes     uint64
	// verify holds the output checks that run after the timed window;
	// each returns how many requests failed them.
	verify []func(ctx context.Context) int
}

// merge adds the requests of a loop that ran in the same slice.
func (r *loopResult) merge(o *loopResult) {
	r.all = append(r.all, o.all...)
	r.hit = append(r.hit, o.hit...)
	r.miss = append(r.miss, o.miss...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// addSlice appends a one-slice loop as the next slice.
func (r *loopResult) addSlice(o *loopResult) {
	win := len(r.walls)
	for _, xs := range []*[]sample{&o.all, &o.hit, &o.miss} {
		for i := range *xs {
			(*xs)[i].win = win
		}
	}
	r.merge(o)
	r.walls = append(r.walls, o.walls...)
	r.allocBytes += o.allocBytes
	r.verify = append(r.verify, o.verify...)
}

func (r *loopResult) wall() time.Duration {
	var t time.Duration
	for _, w := range r.walls {
		t += w
	}
	return t
}

// timed runs body, recording its wall time and process-wide allocation
// as one slice.
func timed(r *loopResult, body func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0, t0 := ms.TotalAlloc, time.Now()
	body()
	r.walls = []time.Duration{time.Since(t0)}
	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - a0
}

// since records a request that started at t0 and has just completed.
func since(t0 time.Time) sample { return sample{ms: float64(time.Since(t0)) / 1e6} }

// runLocal resolves and runs one campaign in process, exactly as the
// serving tier does, and returns its Result bytes.
func runLocal(ctx context.Context, c servev1.Campaign) (*rooftune.Result, []byte, error) {
	opts, err := campaign.Options(c)
	if err != nil {
		return nil, nil, err
	}
	sess, err := rooftune.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := sess.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(res)
	return res, data, err
}

// tuneLocal: one caller runs campaign.Options -> rooftune.New ->
// Session.Run (and encodes the Result) in process, a fresh seed for
// every campaign, until the deadline. Like every loop, it draws its
// campaigns from the given stream; the loops of one run use distinct
// streams, so a fresh campaign is never one a daemon has answered.
func tuneLocal(ctx context.Context, seed, stream uint64, d time.Duration, tr *tracer) *loopResult {
	r := &loopResult{}
	fresh := newFresh(seed, stream, allShapes)
	timed(r, func() {
		for end := time.Now().Add(d); time.Now().Before(end) || !fresh.roundDone(); {
			c := fresh.next()
			r.attempted++
			trace := tr.newTrace()
			t0 := time.Now()
			root := tr.begin("tune.campaign", trace, 0)
			rootID := root.id()
			err := func() error {
				s := tr.begin("campaign.options", trace, rootID)
				opts, err := campaign.Options(c.c)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin("session.new", trace, rootID)
				sess, err := rooftune.New(opts...)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin("session.run", trace, rootID)
				res, err := sess.Run(ctx)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin("session.result_encode", trace, rootID)
				_, err = json.Marshal(res)
				tr.end(s)
				return err
			}()
			tr.end(root)
			if err != nil {
				fmt.Printf("tune-local: %s: %v\n", c.label, err)
				r.failed++
				continue
			}
			r.all = append(r.all, since(t0))
		}
	})
	return r
}

// hitEvery sets the serve-mix traffic: one request in hitEvery is a
// fresh campaign (a miss), the rest repeat a warmed campaign (hits).
const hitEvery = 5

// serveMix: two clients, one connection each, post to the serve daemon
// over loopback. About four requests in five repeat a campaign warmed
// during set-up; the rest are fresh campaigns. stream separates the
// campaign draws of separate calls within one run.
func serveMix(ctx context.Context, e *env, seed, stream uint64, d time.Duration, tr *tracer) *loopResult {
	const clients = 2
	type hitRec struct {
		k    int
		body []byte
	}
	parts := make([]*loopResult, clients)
	hits := make([][]hitRec, clients)
	var wg sync.WaitGroup
	total := &loopResult{}
	timed(total, func() {
		end := time.Now().Add(d)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := &loopResult{}
				parts[i] = r
				cl := newClient()
				defer cl.CloseIdleConnections()
				pick := newRNG(seed, stream+uint64(i))
				fresh := newFresh(seed, stream+100+uint64(i), allShapes)
				for time.Now().Before(end) || !fresh.roundDone() {
					k, body, want, name := -1, []byte(nil), "miss", "serve.miss"
					if pick.intn(hitEvery) != 0 {
						k = pick.intn(len(e.fixed))
						body, want, name = e.fixed[k].body, "hit", "serve.hit"
					} else {
						body = fresh.next().body
					}
					r.attempted++
					trace := tr.newTrace()
					s := tr.begin(name, trace, 0)
					t0 := time.Now()
					data, got, err := tune(ctx, cl, e.fleet.serve.url, body)
					smp := since(t0)
					tr.end(s)
					if err == nil && got != want {
						err = fmt.Errorf("cache disposition %q, want %q", got, want)
					}
					if err != nil {
						fmt.Printf("serve-mix: client %d: %v\n", i, err)
						r.failed++
						continue
					}
					r.all = append(r.all, smp)
					if k >= 0 {
						r.hit = append(r.hit, smp)
						hits[i] = append(hits[i], hitRec{k, data})
					} else {
						r.miss = append(r.miss, smp)
					}
				}
			}(i)
		}
		wg.Wait()
	})
	for _, p := range parts {
		total.merge(p)
	}
	// Every hit must be byte-identical to the bytes its warm-up miss
	// returned.
	total.verify = append(total.verify, func(context.Context) int {
		bad := 0
		for _, hs := range hits {
			for _, h := range hs {
				if !bytes.Equal(h.body, e.warm[h.k]) {
					fmt.Printf("serve-mix: hit on %s differs from its warm-up bytes\n", e.fixed[h.k].label)
					bad++
				}
			}
		}
		return bad
	})
	return total
}

// distChain: one client posts chained campaigns, each with a fresh
// seed, to the coordinator daemon, which fans their plan nodes out to
// the two loopback workers.
func distChain(ctx context.Context, e *env, seed, stream uint64, d time.Duration, tr *tracer) *loopResult {
	type done struct {
		c    camp
		body []byte
	}
	var runs []done
	r := &loopResult{}
	cl := newClient()
	defer cl.CloseIdleConnections()
	fresh := newFresh(seed, stream, chainedShapes)
	timed(r, func() {
		for end := time.Now().Add(d); time.Now().Before(end) || !fresh.roundDone(); {
			c := fresh.next()
			r.attempted++
			trace := tr.newTrace()
			s := tr.begin("dist.campaign", trace, 0)
			tr.bind(c.body, trace, s.id())
			t0 := time.Now()
			data, got, err := tune(ctx, cl, e.fleet.coord.url, c.body)
			smp := since(t0)
			tr.end(s)
			if err == nil && got != "miss" {
				err = fmt.Errorf("cache disposition %q, want miss", got)
			}
			if err != nil {
				fmt.Printf("dist-chain: %s: %v\n", c.label, err)
				r.failed++
				continue
			}
			r.all = append(r.all, smp)
			r.miss = append(r.miss, smp)
			runs = append(runs, done{c, data})
		}
	})
	// Distributed Results must be byte-identical to an in-process run of
	// the same campaign.
	r.verify = append(r.verify, func(ctx context.Context) int {
		bad := 0
		for _, d := range runs {
			_, want, err := runLocal(ctx, d.c.c)
			if err != nil || !bytes.Equal(d.body, want) {
				fmt.Printf("dist-chain: %s: distributed Result differs from the in-process run (err=%v)\n", d.c.label, err)
				bad++
			}
		}
		return bad
	})
	return r
}
