package main

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// kernelRef is the host kernel's median time on the 2-vCPU Xeon host the
// bounds in BENCHMARK.json were set on. Wall-clock metrics are reported
// at that host speed.
const kernelRef = 64 * time.Millisecond

// hostSpeed tracks how fast the host runs during one run. A shared host
// slows down and speeds up in phases lasting minutes, by a third and
// more, and every wall-clock metric moves with it. A fixed kernel that
// shares no code with rooftune (JSON round trips, sorting, a map and
// SHA-256 on both cores, the same mix of allocation and compute as a
// campaign) is timed between the measured slices; its median over the
// run, relative to kernelRef, is the host factor that the wall-clock
// metrics are divided by.
type hostSpeed struct{ samples []float64 }

// sample times the kernel once. It collects garbage first and keeps the
// collector off while the kernel runs, so that the size of rooftune's
// heap does not enter the kernel's time.
func (h *hostSpeed) sample() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	t0 := time.Now()
	hostKernel()
	h.samples = append(h.samples, float64(time.Since(t0)))
}

// factor is the run's host slowdown relative to the reference host.
func (h *hostSpeed) factor() float64 { return h.factorSince(0) }

// factorSince is the host slowdown over the samples taken from the i-th
// on.
func (h *hostSpeed) factorSince(i int) float64 {
	return quantile(h.samples[i:], 0.5) / float64(kernelRef)
}

type kernelRecord struct {
	Name string
	Key  int
	Vals []float64
	Tags map[string]string
}

func hostKernel() {
	var wg sync.WaitGroup
	for c := 0; c < hostCores; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := make([]kernelRecord, 3000)
			for i := range recs {
				recs[i] = kernelRecord{
					Name: "r" + strconv.Itoa(i*7919%3000),
					Key:  i * 31 % 977,
					Vals: make([]float64, 8),
					Tags: map[string]string{"a": strconv.Itoa(i)},
				}
			}
			for r := 0; r < 3; r++ {
				b, err := json.Marshal(recs)
				if err != nil {
					panic(err) // a fixed, encodable value
				}
				var out []kernelRecord
				if err := json.Unmarshal(b, &out); err != nil {
					panic(err)
				}
				sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
				m := map[string]int{}
				for _, o := range out {
					m[o.Name] += o.Key
				}
				sha256.Sum256(b)
			}
		}()
	}
	wg.Wait()
}
