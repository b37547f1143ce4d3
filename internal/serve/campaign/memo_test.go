package campaign

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rooftune"
	servev1 "rooftune/serve/v1"
)

// parse decodes a wire campaign the way both daemons do.
func parse(t *testing.T, src string) servev1.Campaign {
	t.Helper()
	c, err := servev1.ParseCampaign(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// directFingerprint resolves a campaign without the memo: the value the
// memo must return.
func directFingerprint(t *testing.T, c servev1.Campaign) string {
	t.Helper()
	opts, err := Options(c)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rooftune.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestMemoCanonicalVariantsShareEntry: whitespace and key-order variants
// of one campaign parse to the same campaign, so they share one memo
// entry and one fingerprint — the unmemoized one.
func TestMemoCanonicalVariantsShareEntry(t *testing.T) {
	variants := []string{
		`{"system":"Gold 6148","workloads":["triad"],"triadLevels":["L2","DRAM"],"chain":true,"seed":5}`,
		`{ "seed": 5, "chain": true,
		   "triadLevels": ["L2", "DRAM"], "workloads": ["triad"], "system": "Gold 6148" }`,
		"{\n\t\"workloads\":[\"triad\"],\n\t\"system\":\"Gold 6148\",\"seed\":5,\"chain\":true,\"triadLevels\":[\"L2\",\"DRAM\"],\"serial\":false\n}",
	}
	m := NewMemo(8)
	want := directFingerprint(t, parse(t, variants[0]))
	for i, src := range variants {
		fp, err := m.Fingerprint(parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Errorf("variant %d: fingerprint %s, want %s", i, fp, want)
		}
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("%d memo entries for one campaign's variants, want 1", n)
	}
}

// TestMemoBounded: the memo never holds more entries than its bound,
// evicts the least recently used campaign first, and an evicted
// campaign re-resolves to the same fingerprint.
func TestMemoBounded(t *testing.T) {
	const bound = 3
	m := NewMemo(bound)
	camp := func(seed int) servev1.Campaign {
		return parse(t, fmt.Sprintf(`{"system":"2650v4","workloads":["triad"],"seed":%d}`, seed))
	}
	first := map[int]string{}
	for seed := 1; seed <= 8; seed++ {
		fp, err := m.Fingerprint(camp(seed))
		if err != nil {
			t.Fatal(err)
		}
		first[seed] = fp
		if n := m.Len(); n > bound {
			t.Fatalf("after %d campaigns the memo holds %d entries, bound %d", seed, n, bound)
		}
		// Touch seed 1 so it stays most recently used.
		if _, err := m.Fingerprint(camp(1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Len(); n != bound {
		t.Fatalf("memo holds %d entries, want the bound %d", n, bound)
	}
	key, err := json.Marshal(camp(1))
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	_, resident := m.entries[string(key)]
	m.mu.Unlock()
	if !resident {
		t.Fatal("the most recently used campaign was evicted")
	}
	for seed, want := range first {
		if got, err := m.Fingerprint(camp(seed)); err != nil || got != want {
			t.Fatalf("seed %d re-resolved to %s (%v), first resolution %s", seed, got, err, want)
		}
		if n := m.Len(); n > bound {
			t.Fatalf("memo holds %d entries, bound %d", n, bound)
		}
	}
	if NewMemo(0).max != 1 {
		t.Fatal("a non-positive bound must clamp to one entry")
	}
}

// TestMemoSkipsFailedResolution: campaigns that fail resolution are
// reported every time and never stored.
func TestMemoSkipsFailedResolution(t *testing.T) {
	m := NewMemo(8)
	for _, src := range []string{
		`{"system":"warp-drive"}`,
		`{"system":"Gold 6148","workloads":["no-such-workload"]}`,
		`{"system":"Gold 6148","triadLoBytes":4096,"triadHiBytes":1024}`,
		`{"workloads":["triad"]}`,
	} {
		for i := 0; i < 2; i++ {
			if fp, err := m.Fingerprint(parse(t, src)); err == nil {
				t.Fatalf("%s resolved to %s, want an error", src, fp)
			}
		}
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("failed resolutions left %d memo entries", n)
	}
}

// TestMemoConcurrent hammers one memo from several goroutines with a
// working set larger than the bound (run under -race in CI): every
// answer matches the unmemoized fingerprint and the bound holds.
func TestMemoConcurrent(t *testing.T) {
	const bound = 2
	camps := make([]servev1.Campaign, 4)
	want := make([]string, len(camps))
	for i := range camps {
		camps[i] = parse(t, fmt.Sprintf(`{"system":"Gold 6132","workloads":["triad"],"seed":%d}`, 100+i))
		want[i] = directFingerprint(t, camps[i])
	}
	m := NewMemo(bound)
	var wg sync.WaitGroup
	errs := make(chan error, 4*3*len(camps))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range camps {
					i := (k + g) % len(camps)
					fp, err := m.Fingerprint(camps[i])
					if err == nil && fp != want[i] {
						err = fmt.Errorf("campaign %d: fingerprint %s, want %s", i, fp, want[i])
					}
					if n := m.Len(); err == nil && n > bound {
						err = fmt.Errorf("memo holds %d entries, bound %d", n, bound)
					}
					if err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
