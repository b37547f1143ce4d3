package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile: the mean
// of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
// distribution. Campaign latencies cluster by shape, with gaps between
// the clusters; where a quantile falls in such a gap, the single-rank
// estimate jumps from one edge to the other as a few samples change
// sides, while this one moves smoothly.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var est, prev float64
	for i := 1; i <= n && prev < 1; i++ {
		c := regIncBeta(a, b, float64(i)/float64(n))
		est += (c - prev) * s[i-1]
		prev = c
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

// betaFraction evaluates the incomplete beta continued fraction by the
// modified Lentz method.
func betaFraction(a, b, x float64) float64 {
	const (
		tiny = 1e-300
		eps  = 1e-13
	)
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m < 10000; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// sample is one completed request: the slice of the run it ran in and
// its latency in milliseconds.
type sample struct {
	win int
	ms  float64
}

// trimmedMean is the mean of xs without its lowest and highest value
// (the plain mean for fewer than three values). Over a run's slices it
// ignores one slice slowed by a host episode, and unlike a median it
// moves smoothly when the system spends a different share of the run in
// one of two speeds, as a run that allocates heavily does with the
// garbage collector's pacing.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	return sum(s) / float64(len(s))
}

// windowed returns the trimmed mean over the run's slices of each
// slice's q-quantile latency, with the number of windows used. When the
// slices are too small to leave ten samples beyond the quantile on
// average, adjacent slices are pooled into fewer windows.
func windowed(xs []sample, q float64, slices int) (float64, int) {
	k := min(slices, int(float64(len(xs))*(1-q)/10))
	if k < 1 {
		k = 1
	}
	per := make([][]float64, k)
	for _, x := range xs {
		i := x.win * k / slices
		per[i] = append(per[i], x.ms)
	}
	var vals []float64
	for _, w := range per {
		if len(w) > 0 {
			vals = append(vals, hdQuantile(w, q))
		}
	}
	return trimmedMean(vals), k
}

// windowRate returns the trimmed mean over slices of the requests
// completed per second in each.
func windowRate(xs []sample, walls []time.Duration) float64 {
	counts := make([]float64, len(walls))
	for _, x := range xs {
		counts[x.win]++
	}
	for i, w := range walls {
		counts[i] /= w.Seconds()
	}
	return trimmedMean(counts)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// metric is one reported number with its unit and the sample count it
// was computed from.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.ms = append(r.ms, metric{name: name, value: value, unit: unit, n: n, note: note})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) print(prefix string) {
	for _, m := range r.ms {
		line := fmt.Sprintf("%s %-30s %14.6g %-6s n=%d", prefix, m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// jsonMetrics renders the named metrics for the result line; a NaN or
// infinite value (a percentile without samples) fails the run instead.
func (r *report) jsonMetrics(names []string) (map[string]map[string]any, error) {
	out := map[string]map[string]any{}
	for _, name := range names {
		m, ok := r.get(name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no value (n=%d)", name, m.n)
		}
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out, nil
}
