package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Trace groups the spans of one campaign.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"` // 0: root
	Trace  int64     `json:"trace"`  // one ID per campaign
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// id is the span's ID, 0 (no parent) for the nil span tracing off gives.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// tracer keeps spans in memory until the run ends. Switched off, it
// records nothing, so untraced code paths pay one branch.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []*span
	// traces maps a campaign's posted bytes to its trace and root span,
	// so spans recorded inside the daemons' handlers join the campaign
	// that caused them.
	traces map[string][2]int64
}

func newTracer() *tracer { return &tracer{traces: map[string][2]int64{}} }

func (t *tracer) enabled() bool { return t.on.Load() }

// begin opens a span; end closes and records it. Both are no-ops when
// tracing is off.
func (t *tracer) begin(name string, trace, parent int64) *span {
	if !t.enabled() {
		return nil
	}
	return &span{ID: t.newID(), Parent: parent, Trace: trace, Name: name, Start: time.Now()}
}

func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores an already-timed span.
func (t *tracer) record(name string, trace, parent int64, start, end time.Time) {
	t.recordID(t.newID(), name, trace, parent, start, end)
}

// recordID stores an already-timed span under an ID taken from newID
// earlier, so that its children can name it before it ends.
func (t *tracer) recordID(id int64, name string, trace, parent int64, start, end time.Time) {
	if !t.enabled() {
		return
	}
	s := &span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID allocates a span or trace ID.
func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// newTrace allocates a campaign trace ID.
func (t *tracer) newTrace() int64 { return t.newID() }

// bind associates a campaign's bytes with its trace and root span.
func (t *tracer) bind(body []byte, trace, root int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.traces[string(body)] = [2]int64{trace, root}
	t.mu.Unlock()
}

// lookup returns the trace and root span bound to a campaign's bytes.
func (t *tracer) lookup(body []byte) (trace, root int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.traces[string(body)]
	return ids[0], ids[1]
}

// durations returns every recorded duration of the named span.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// spanStat aggregates one span name.
type spanStat struct {
	name       string
	n          int
	total, own time.Duration
	p50        float64
}

// summarize computes, per span name, the count, the median duration,
// the total and the self time: a span's duration minus the part of its
// interval that its children cover (the union of the children's
// intervals, since concurrent children may overlap).
func (t *tracer) summarize() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		d := s.dur()
		st.n++
		st.total += d
		st.own += d - covered(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	var out []spanStat
	for name, st := range byName {
		st.p50 = quantile(durs[name], 0.5)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(p.Start) {
			s = p.Start
		}
		if e.After(p.End) {
			e = p.End
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(cur[1]) {
			if i > 0 {
				total += cur[1].Sub(cur[0])
			}
			cur = x
			continue
		}
		if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
