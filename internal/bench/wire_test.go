package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/lint"
	"rooftune/internal/lint/configsum"
	"rooftune/internal/stats"
)

// wireConfigs is one representative value per Config variant, with every
// field nonzero so a dropped field shows up as a round-trip diff. The
// exhaustiveness test below asserts this table tracks the configsum
// variant census, so a new variant without wire coverage fails here.
var wireConfigs = map[string]Config{
	"DGEMMConfig":   DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 2, Threads: 8},
	"TriadConfig":   TriadConfig{Elements: 1 << 20, Affinity: hw.AffinitySpread, Sockets: 2, Threads: 4},
	"SpMVConfig":    SpMVConfig{N: 1 << 18, NNZPerRow: 16, ChunkRows: 512, Sockets: 1, Threads: 6},
	"StencilConfig": StencilConfig{NX: 2048, NY: 1024, TileX: 256, TileY: 8, Sockets: 1, Threads: 3},
}

func TestConfigJSONRoundTrip(t *testing.T) {
	for name, cfg := range wireConfigs {
		t.Run(name, func(t *testing.T) {
			data, err := MarshalConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalConfig(data)
			if err != nil {
				t.Fatalf("decoding %s: %v", data, err)
			}
			if !reflect.DeepEqual(back, cfg) {
				t.Fatalf("round trip changed the config:\nsent: %#v\ngot:  %#v", cfg, back)
			}
		})
	}
}

func TestConfigDigestStable(t *testing.T) {
	for name, cfg := range wireConfigs {
		t.Run(name, func(t *testing.T) {
			d1, err := ConfigDigest(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := ConfigDigest(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 {
				t.Fatalf("digest not deterministic: %s vs %s", d1, d2)
			}
			if len(d1) != 64 {
				t.Fatalf("digest %q is not hex SHA-256", d1)
			}
		})
	}
}

// TestConfigDigestDistinguishes checks the content-address property on
// the mutations that matter: a changed field value and a different
// variant with coincidentally similar fields must digest differently.
func TestConfigDigestDistinguishes(t *testing.T) {
	base := DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 1}
	mutants := []Config{
		DGEMMConfig{N: 1001, M: 4096, K: 128, Sockets: 1},
		DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 2},
		DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 1, Threads: 1},
		TriadConfig{Elements: 1000, Sockets: 1},
	}
	baseDigest, err := ConfigDigest(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		d, err := ConfigDigest(m)
		if err != nil {
			t.Fatal(err)
		}
		if d == baseDigest {
			t.Fatalf("%#v digests equal to %#v", m, base)
		}
	}
}

func TestConfigWireRejectsUnknownVariant(t *testing.T) {
	if _, err := UnmarshalConfig([]byte(`{"variant":"FFTConfig","fields":{}}`)); err == nil {
		t.Fatal("unknown variant must fail decoding")
	} else if !strings.Contains(err.Error(), "FFTConfig") {
		t.Fatalf("error %q does not name the variant", err)
	}
	type fake struct{ DGEMMConfig }
	if _, err := MarshalConfig(fake{}); err == nil {
		t.Fatal("unknown variant must fail encoding")
	}
	if _, err := ConfigDigest(fake{}); err == nil {
		t.Fatal("unknown variant must fail digesting")
	}
}

// TestWireVariantsExhaustive is the digest/serialization analogue of the
// root config round-trip test: it takes the bench.Config variant census
// from the configsum analyzer (the same census rooflint enforces
// tree-wide) and asserts the wire layer — decoder table, canonical
// digest and the representative table above — covers every variant. A
// fifth variant added without wire support fails here, not in a
// daemon's cache layer.
func TestWireVariantsExhaustive(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want exactly internal/bench", len(pkgs))
	}
	variants, err := configsum.VariantNames(pkgs[0].Types)
	if err != nil {
		t.Fatal(err)
	}
	decodable := map[string]bool{}
	for _, name := range WireVariants() {
		decodable[name] = true
	}
	for _, name := range variants {
		if !decodable[name] {
			t.Errorf("bench.Config variant %s has no wire decoder: add it to configDecoders, MarshalConfig and ConfigCanonical", name)
		}
		if _, ok := wireConfigs[name]; !ok {
			t.Errorf("bench.Config variant %s has no representative in wireConfigs: digest and round-trip coverage is incomplete", name)
		}
	}
	declared := map[string]bool{}
	for _, name := range variants {
		declared[name] = true
	}
	for _, name := range WireVariants() {
		if !declared[name] {
			t.Errorf("wire decoder covers %s, which internal/bench no longer declares", name)
		}
	}
}

func TestOutcomeJSONRoundTrip(t *testing.T) {
	out := Outcome{
		Key:      "n1000m4096k128s1",
		Describe: "n=1000 m=4096 k=128",
		Metric:   MetricFlops,
		Config:   DGEMMConfig{N: 1000, M: 4096, K: 128, Sockets: 1},
		Mean:     408.71e9,
		Invocations: []InvocationResult{
			{
				Mean:     408.91e9,
				Samples:  37,
				Measured: 1274 * time.Millisecond,
				Reason:   StopConfidence,
				CI:       stats.Interval{Mean: 408.91e9, Lower: 405e9, Upper: 412.8e9, Level: 0.99},
			},
			{
				Mean:     408.51e9,
				Samples:  12,
				Measured: 410 * time.Millisecond,
				Reason:   StopBound,
				CI:       stats.Interval{Mean: 408.51e9, Lower: 404e9, Upper: 413e9, Level: 0.99},
			},
		},
		InnerStops:   1,
		Pruned:       true,
		Elapsed:      3141592653 * time.Nanosecond,
		TotalSamples: 49,
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Outcome
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, out) {
		t.Fatalf("round trip changed the outcome:\nsent: %#v\ngot:  %#v", out, back)
	}
}

// TestOutcomeJSONWithoutConfig pins the test-fake path: an outcome with
// no typed config must round-trip as nil, not error or zero-value.
func TestOutcomeJSONWithoutConfig(t *testing.T) {
	out := Outcome{Key: "fake", Metric: MetricBandwidth, Mean: 42e9}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Outcome
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Config != nil {
		t.Fatalf("config = %#v, want nil", back.Config)
	}
	if !reflect.DeepEqual(back, out) {
		t.Fatalf("round trip changed the outcome: %#v vs %#v", back, out)
	}
}

// BenchmarkDigest measures the content-address computation over every
// Config variant — the per-request fingerprint cost the serving tier
// pays before it can consult its cache.
func BenchmarkDigest(b *testing.B) {
	configs := make([]Config, 0, len(wireConfigs))
	for _, c := range wireConfigs {
		configs = append(configs, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			if _, err := ConfigDigest(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// sprintfCanonical is ConfigCanonical's reference rendering, written
// with fmt the way the content address was first defined. The
// strconv-based renderer must reproduce it byte for byte: the canonical
// strings feed session fingerprints, which key persisted caches.
func sprintfCanonical(c Config) string {
	switch cfg := c.(type) {
	case DGEMMConfig:
		return fmt.Sprintf("DGEMMConfig{n=%d,m=%d,k=%d,sockets=%d,threads=%d}",
			cfg.N, cfg.M, cfg.K, cfg.Sockets, cfg.Threads)
	case TriadConfig:
		return fmt.Sprintf("TriadConfig{elements=%d,affinity=%s,sockets=%d,threads=%d}",
			cfg.Elements, cfg.Affinity, cfg.Sockets, cfg.Threads)
	case SpMVConfig:
		return fmt.Sprintf("SpMVConfig{n=%d,nnzPerRow=%d,chunkRows=%d,sockets=%d,threads=%d}",
			cfg.N, cfg.NNZPerRow, cfg.ChunkRows, cfg.Sockets, cfg.Threads)
	case StencilConfig:
		return fmt.Sprintf("StencilConfig{nx=%d,ny=%d,tileX=%d,tileY=%d,sockets=%d,threads=%d}",
			cfg.NX, cfg.NY, cfg.TileX, cfg.TileY, cfg.Sockets, cfg.Threads)
	default:
		panic(fmt.Sprintf("sprintfCanonical: unsupported variant %T", c))
	}
}

// canonicalEdgeConfigs adds, per variant, the values a hand-rolled
// integer renderer gets wrong first: zero, negative and extreme fields.
var canonicalEdgeConfigs = map[string][]Config{
	"DGEMMConfig": {
		DGEMMConfig{},
		DGEMMConfig{N: -1, M: math.MaxInt, K: math.MinInt, Sockets: 1, Threads: -7},
	},
	"TriadConfig": {
		TriadConfig{},
		TriadConfig{Elements: math.MaxInt, Affinity: hw.AffinityClose, Sockets: -2, Threads: math.MinInt},
	},
	"SpMVConfig": {
		SpMVConfig{},
		SpMVConfig{N: math.MinInt, NNZPerRow: -1, ChunkRows: math.MaxInt, Sockets: 10, Threads: 100},
	},
	"StencilConfig": {
		StencilConfig{},
		StencilConfig{NX: math.MaxInt, NY: -3, TileX: 1, TileY: math.MinInt, Sockets: 999, Threads: -1},
	},
}

// TestAppendConfigCanonicalMatchesSprintf is the renderer's property
// test: for every bench.Config variant in the configsum census — so a
// new variant cannot skip it — ConfigCanonical equals both the
// AppendConfigCanonical bytes (appended after an existing prefix, which
// must survive untouched) and the fmt reference rendering.
func TestAppendConfigCanonicalMatchesSprintf(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want exactly internal/bench", len(pkgs))
	}
	variants, err := configsum.VariantNames(pkgs[0].Types)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range variants {
		rep, ok := wireConfigs[name]
		edges, eok := canonicalEdgeConfigs[name]
		if !ok || !eok {
			t.Errorf("bench.Config variant %s has no canonical-rendering coverage: add it to wireConfigs and canonicalEdgeConfigs", name)
			continue
		}
		for _, cfg := range append([]Config{rep}, edges...) {
			canon, err := ConfigCanonical(cfg)
			if err != nil {
				t.Fatalf("%#v: %v", cfg, err)
			}
			if want := sprintfCanonical(cfg); canon != want {
				t.Errorf("ConfigCanonical(%#v) = %q, reference %q", cfg, canon, want)
			}
			appended, err := AppendConfigCanonical([]byte("prefix|"), cfg)
			if err != nil {
				t.Fatalf("%#v: %v", cfg, err)
			}
			if string(appended) != "prefix|"+canon {
				t.Errorf("AppendConfigCanonical(%#v) = %q, want %q", cfg, appended, "prefix|"+canon)
			}
		}
	}
	if _, err := AppendConfigCanonical(nil, nil); err == nil {
		t.Error("AppendConfigCanonical(nil config) must fail")
	}
}

// TestBudgetCanonicalMatchesSprintf pins Budget.Canonical to its fmt
// reference rendering on the default budget and on one with every field
// moved away from its default.
func TestBudgetCanonicalMatchesSprintf(t *testing.T) {
	ref := func(b Budget) string {
		return fmt.Sprintf(
			"Budget{invocations=%d,maxIterations=%d,maxTime=%d,scope=%s,errorInverse=%s,ciLevel=%s,"+
				"confidence=%t,innerBound=%t,outerBound=%t,minCount=%d,minCISamples=%d,"+
				"studentT=%t,median=%t,steadyState=%t,steadyWindow=%d,steadyThreshold=%s}",
			b.Invocations, b.MaxIterations, int64(b.MaxTime), b.Scope,
			strconv.FormatFloat(b.ErrorInverse, 'g', -1, 64),
			strconv.FormatFloat(b.CILevel, 'g', -1, 64),
			b.UseConfidence, b.UseInnerBound, b.UseOuterBound, b.MinCount, b.MinCISamples,
			b.UseStudentT, b.UseMedian, b.UseSteadyState, b.SteadyWindow,
			strconv.FormatFloat(b.SteadyThreshold, 'g', -1, 64))
	}
	moved := Budget{
		Invocations: -3, MaxIterations: math.MaxInt, MaxTime: -time.Nanosecond, Scope: ScopePerInvocation,
		ErrorInverse: 1e-300, CILevel: 0.995, UseConfidence: true, UseInnerBound: true, UseOuterBound: true,
		MinCount: 2, MinCISamples: 9, UseStudentT: true, UseMedian: true, UseSteadyState: true,
		SteadyWindow: 11, SteadyThreshold: math.Inf(1),
	}
	for _, b := range []Budget{DefaultBudget(), DefaultBudget().WithFlags(true, true, true), moved, {}} {
		if got, want := b.Canonical(), ref(b); got != want {
			t.Errorf("Budget.Canonical() = %q, reference %q", got, want)
		}
		if got := string(b.AppendCanonical([]byte("x"))); got != "x"+ref(b) {
			t.Errorf("Budget.AppendCanonical = %q, want %q", got, "x"+ref(b))
		}
	}
}
