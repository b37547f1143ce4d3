package main

import (
	"encoding/json"
	"fmt"

	servev1 "rooftune/serve/v1"
)

// systems are the four Idun machines the paper characterises.
var systems = []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148"}

// allLevels is the per-level TRIAD residency set of the levels and wide
// shapes.
var allLevels = []string{"L1", "L2", "L3", "DRAM"}

// Campaign shapes. Every workload draws from systems x shapes.
const (
	shapeDefault = "default" // dgemm + triad, the library default
	shapeLevels  = "levels"  // triad at L1/L2/L3/DRAM, chained
	shapeWide    = "wide"    // all four workloads with chained levels
)

var (
	allShapes     = []string{shapeDefault, shapeLevels, shapeWide}
	chainedShapes = []string{shapeLevels, shapeWide}
)

// camp is one generated campaign: its wire form, the exact bytes the
// benchmark posts, and a label for reports.
type camp struct {
	c     servev1.Campaign
	body  []byte
	label string
}

func newCamp(system, shape string, seed uint64) camp {
	c := servev1.Campaign{System: system, Seed: seed}
	switch shape {
	case shapeLevels:
		c.Workloads = []string{"triad"}
		c.TriadLevels = allLevels
		c.Chain = true
	case shapeWide:
		c.Workloads = []string{"dgemm", "triad", "spmv", "stencil"}
		c.TriadLevels = allLevels
		c.Chain = true
	}
	// json.Marshal of a Campaign is deterministic, and the serving tier
	// re-marshals the parsed campaign the same way when it builds node
	// specs, so these bytes also identify the campaign on the workers.
	body, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal campaign: %v", err))
	}
	return camp{c: c, body: body, label: fmt.Sprintf("%s/%s/seed=%d", system, shape, seed)}
}

// rng is a splitmix64 stream: the benchmark's only source of
// randomness, so a seed fixes every generated input.
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{state: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// campaignSeed draws a campaign seed; zero would select the library's
// default seed, so it is never returned.
func (r *rng) campaignSeed() uint64 {
	for {
		if s := r.next() >> 16; s != 0 {
			return s
		}
	}
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fixedRounds is how many times the fixed list covers every system x
// shape. The worst ceiling error is a maximum over the list, and it is
// dominated by the 2695v4 DGEMM sweeps, whose error falls in two clusters
// depending on the campaign seed; three rounds put six of those sweeps
// in every list, so the maximum repeats across workload seeds.
const fixedRounds = 3

// fixedList is the seed-generated campaign list every workload sets up
// with. Its default-budget results are the serve cache's warm set, and
// its exact search-cost metrics are computed against a fixed-sample
// reference of the same campaigns.
func fixedList(seed uint64) []camp {
	r := newRNG(seed, 1)
	var out []camp
	for round := 0; round < fixedRounds; round++ {
		for _, shape := range allShapes {
			for _, sys := range systems {
				out = append(out, newCamp(sys, shape, r.campaignSeed()))
			}
		}
	}
	return out
}

// freshCampaigns generates the closed loops' campaigns: every system x
// shape combination in a seed-shuffled round, each with a fresh seed,
// round after round.
type freshCampaigns struct {
	r      *rng
	shapes []string
	round  []camp
}

func newFresh(seed, stream uint64, shapes []string) *freshCampaigns {
	return &freshCampaigns{r: newRNG(seed, stream), shapes: shapes}
}

// roundDone reports whether every campaign of the current round has
// been handed out. Loops stop only at round boundaries, so that every
// system x shape weighs the same in a slice's latencies.
func (f *freshCampaigns) roundDone() bool { return len(f.round) == 0 }

func (f *freshCampaigns) next() camp {
	if len(f.round) == 0 {
		for _, shape := range f.shapes {
			for _, sys := range systems {
				f.round = append(f.round, newCamp(sys, shape, f.r.campaignSeed()))
			}
		}
		for i := len(f.round) - 1; i > 0; i-- {
			j := f.r.intn(i + 1)
			f.round[i], f.round[j] = f.round[j], f.round[i]
		}
	}
	c := f.round[0]
	f.round = f.round[1:]
	return c
}
