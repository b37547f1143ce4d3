package rooftune

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/units"
)

// goldenFingerprintSessions is the fingerprint golden's session census:
// the three campaign shapes the serving tier sees most ({default,
// levels, wide}) on two systems and two seeds, one session overriding
// every budget field and planning parameter away from its default, and
// one native session. The shape entries resolve exactly as the serving
// tier resolves the matching wire campaign (case shards pinned to one).
func goldenFingerprintSessions() []struct {
	label string
	opts  []Option
} {
	type entry = struct {
		label string
		opts  []Option
	}
	levels := []string{"L1", "L2", "L3", "DRAM"}
	var out []entry
	for _, shape := range []string{"default", "levels", "wide"} {
		for _, sys := range []string{"2650v4", "Gold 6148"} {
			for _, seed := range []uint64{7, 1021} {
				opts := []Option{WithSystem(sys), WithSeed(seed), WithCaseShards(1)}
				switch shape {
				case "levels":
					opts = append(opts, WithWorkloads("triad"), WithTriadLevels(levels...), WithSweepChaining(true))
				case "wide":
					opts = append(opts, WithWorkloads("dgemm", "triad", "spmv", "stencil"),
						WithTriadLevels(levels...), WithSweepChaining(true))
				}
				out = append(out, entry{fmt.Sprintf("%s/%s/seed=%d", shape, sys, seed), opts})
			}
		}
	}
	custom := bench.DefaultBudget().WithFlags(true, false, true)
	custom.Invocations = 3
	custom.MaxIterations = 77
	custom.MaxTime = 1500 * time.Millisecond
	custom.Scope = bench.ScopePerInvocation
	custom.ErrorInverse = 33.5
	custom.CILevel = 0.95
	custom.MinCount = 4
	custom.MinCISamples = 6
	custom.UseStudentT = true
	custom.UseMedian = true
	custom.UseSteadyState = true
	custom.SteadyWindow = 7
	custom.SteadyThreshold = 0.0125
	out = append(out, entry{"custom/Gold 6132/seed=99", []Option{
		WithSystem("Gold 6132"), WithSeed(99), WithCaseShards(3), WithBudget(custom),
		WithSpace([]core.Dims{{N: 1000, M: 4096, K: 128}, {N: 512, M: 512, K: 256}}),
		WithTriadRange(64*units.KiB, 64*units.MiB), WithSpMVShape(1<<14, 8), WithStencilGrid(512, 256),
		WithWorkloads("stencil", "spmv", "triad", "dgemm"), WithTriadLevels("DRAM", "L2"),
	}})
	// Threads is pinned so the native rendering does not depend on the
	// host's GOMAXPROCS.
	out = append(out, entry{"native/threads=2", []Option{WithNative(), WithThreads(2)}})
	return out
}

// TestFingerprintGolden pins Session.Fingerprint to committed values.
// Fingerprints key the serving tier's on-disk cache and the dist/v1 node
// fingerprints, so a rendering change that moves them silently orphans
// every persisted entry and makes mixed-version fleets reject each
// other's nodes. A deliberate identity change bumps fingerprintSchema
// and regenerates testdata/fingerprints.golden with -update.
func TestFingerprintGolden(t *testing.T) {
	var got strings.Builder
	for _, e := range goldenFingerprintSessions() {
		fmt.Fprintf(&got, "%s %s\n", fingerprintFor(t, e.opts...), e.label)
	}
	golden := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("fingerprints moved:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
