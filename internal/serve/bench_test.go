package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeCacheHit measures the full HTTP round trip of a
// cache-hit tune request: campaign parse, fingerprint, cache lookup,
// stored-bytes response. This is the daemon's steady-state hot path —
// a warm cache answers every repeat campaign through it. The toy
// counting workload plans a handful of cases; see
// BenchmarkServeCacheHitLevels for a realistic campaign.
func BenchmarkServeCacheHit(b *testing.B) {
	benchCacheHit(b, `{"system": "Gold 6148", "workloads": ["counting"], "seed": 97}`)
}

// BenchmarkServeCacheHitLevels is the cache hit for a realistic campaign:
// chained TRIAD at L1/L2/L3/DRAM on Gold 6148, eight plan nodes and
// 130 planned cases. Any per-hit work that scales with the plan
// (planning, fingerprint rendering) shows here and hides in the toy
// benchmark above.
func BenchmarkServeCacheHitLevels(b *testing.B) {
	benchCacheHit(b, `{"system": "Gold 6148", "workloads": ["triad"], "triadLevels": ["L1", "L2", "L3", "DRAM"], "chain": true, "seed": 97}`)
}

// benchCacheHit warms the cache with one run of campaign, then times
// repeat submissions, each of which must be a hit.
func benchCacheHit(b *testing.B, campaign string) {
	b.ReportAllocs()
	srv, err := New(nil, Config{CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warm, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(campaign))
	if err != nil {
		b.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := sink.ReadFrom(warm.Body); err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", warm.StatusCode, sink.Bytes())
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(campaign))
		if err != nil {
			b.Fatal(err)
		}
		sink.Reset()
		if _, err := sink.ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(CacheHeader); got != "hit" {
			b.Fatalf("iteration %d: %s = %q, want hit", i, CacheHeader, got)
		}
	}
}
