package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/stats"
)

// This file is the wire layer of the bench package: a canonical,
// content-addressable rendering of every Config variant (the serving
// tier's cache key) and a versioned JSON encoding of Config and Outcome
// (the serving tier's result payload). Both encodings dispatch on the
// closed Config sum with exhaustive type switches — the configsum
// analyzer machine-checks the switches, and TestWireVariantsExhaustive
// asserts the census here tracks configsum.Variants, so a new variant
// without wire support fails the build and the tests, never a daemon.

// ConfigCanonical renders a configuration's typed identity as a
// canonical string: the variant name followed by every field in its
// declared order. Two configurations render equal strings iff they are
// equal values of the same variant — the property that makes the string
// (and its digest) a sound content address. The rendering is part of
// the wire contract: changing it invalidates every persisted cache
// entry keyed on ConfigDigest.
func ConfigCanonical(c Config) (string, error) {
	b, err := AppendConfigCanonical(nil, c)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendConfigCanonical appends ConfigCanonical's rendering of c to dst
// and returns the extended buffer. It is the allocation-free form the
// session fingerprint renders hundreds of cases through; the bytes are
// exactly ConfigCanonical's.
func AppendConfigCanonical(dst []byte, c Config) ([]byte, error) {
	switch cfg := c.(type) {
	case DGEMMConfig:
		dst = appendField(append(dst, "DGEMMConfig{"...), "n=", cfg.N)
		dst = appendField(append(dst, ','), "m=", cfg.M)
		dst = appendField(append(dst, ','), "k=", cfg.K)
		dst = appendField(append(dst, ','), "sockets=", cfg.Sockets)
		dst = appendField(append(dst, ','), "threads=", cfg.Threads)
	case TriadConfig:
		dst = appendField(append(dst, "TriadConfig{"...), "elements=", cfg.Elements)
		dst = append(append(dst, ",affinity="...), cfg.Affinity.String()...)
		dst = appendField(append(dst, ','), "sockets=", cfg.Sockets)
		dst = appendField(append(dst, ','), "threads=", cfg.Threads)
	case SpMVConfig:
		dst = appendField(append(dst, "SpMVConfig{"...), "n=", cfg.N)
		dst = appendField(append(dst, ','), "nnzPerRow=", cfg.NNZPerRow)
		dst = appendField(append(dst, ','), "chunkRows=", cfg.ChunkRows)
		dst = appendField(append(dst, ','), "sockets=", cfg.Sockets)
		dst = appendField(append(dst, ','), "threads=", cfg.Threads)
	case StencilConfig:
		dst = appendField(append(dst, "StencilConfig{"...), "nx=", cfg.NX)
		dst = appendField(append(dst, ','), "ny=", cfg.NY)
		dst = appendField(append(dst, ','), "tileX=", cfg.TileX)
		dst = appendField(append(dst, ','), "tileY=", cfg.TileY)
		dst = appendField(append(dst, ','), "sockets=", cfg.Sockets)
		dst = appendField(append(dst, ','), "threads=", cfg.Threads)
	case nil:
		return dst, fmt.Errorf("bench: ConfigCanonical(nil)")
	default:
		return dst, fmt.Errorf("bench: ConfigCanonical: unsupported config variant %T", c)
	}
	return append(dst, '}'), nil
}

// appendField appends one name=value integer field of a canonical
// rendering.
func appendField(dst []byte, name string, v int) []byte {
	return strconv.AppendInt(append(dst, name...), int64(v), 10)
}

// ConfigDigest returns the canonical content digest of a configuration:
// the hex SHA-256 of its ConfigCanonical rendering. The serving tier
// composes these per-case digests (with system, space and engine
// identity) into its cache key, so a million identical tuning requests
// cost one measurement.
func ConfigDigest(c Config) (string, error) {
	s, err := ConfigCanonical(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:]), nil
}

// Canonical renders the budget with every field in declared order — the
// evaluation-process identity the session fingerprint hashes. Two
// budgets render equal strings iff every stop-condition parameter is
// equal, so a cache key built on it never serves a Confidence-technique
// result to a Default-technique request.
func (b Budget) Canonical() string {
	return string(b.AppendCanonical(nil))
}

// AppendCanonical appends Canonical's rendering to dst and returns the
// extended buffer.
func (b Budget) AppendCanonical(dst []byte) []byte {
	dst = appendField(append(dst, "Budget{"...), "invocations=", b.Invocations)
	dst = appendField(append(dst, ','), "maxIterations=", b.MaxIterations)
	dst = strconv.AppendInt(append(dst, ",maxTime="...), int64(b.MaxTime), 10)
	dst = append(append(dst, ",scope="...), b.Scope.String()...)
	dst = strconv.AppendFloat(append(dst, ",errorInverse="...), b.ErrorInverse, 'g', -1, 64)
	dst = strconv.AppendFloat(append(dst, ",ciLevel="...), b.CILevel, 'g', -1, 64)
	dst = strconv.AppendBool(append(dst, ",confidence="...), b.UseConfidence)
	dst = strconv.AppendBool(append(dst, ",innerBound="...), b.UseInnerBound)
	dst = strconv.AppendBool(append(dst, ",outerBound="...), b.UseOuterBound)
	dst = appendField(append(dst, ','), "minCount=", b.MinCount)
	dst = appendField(append(dst, ','), "minCISamples=", b.MinCISamples)
	dst = strconv.AppendBool(append(dst, ",studentT="...), b.UseStudentT)
	dst = strconv.AppendBool(append(dst, ",median="...), b.UseMedian)
	dst = strconv.AppendBool(append(dst, ",steadyState="...), b.UseSteadyState)
	dst = appendField(append(dst, ','), "steadyWindow=", b.SteadyWindow)
	dst = strconv.AppendFloat(append(dst, ",steadyThreshold="...), b.SteadyThreshold, 'g', -1, 64)
	return append(dst, '}')
}

// configWire is the JSON envelope for the Config sum: the variant name
// selects the decoder, so an unknown variant fails loudly on both ends.
type configWire struct {
	Variant string          `json:"variant"`
	Fields  json.RawMessage `json:"fields"`
}

// dgemmConfigWire mirrors DGEMMConfig field for field. The wire structs
// exist so the in-memory types can evolve (unexported fields, renamed
// Go identifiers) without silently changing the persisted schema.
type dgemmConfigWire struct {
	N       int `json:"n"`
	M       int `json:"m"`
	K       int `json:"k"`
	Sockets int `json:"sockets"`
	Threads int `json:"threads,omitempty"`
}

type triadConfigWire struct {
	Elements int    `json:"elements"`
	Affinity string `json:"affinity"`
	Sockets  int    `json:"sockets"`
	Threads  int    `json:"threads,omitempty"`
}

type spmvConfigWire struct {
	N         int `json:"n"`
	NNZPerRow int `json:"nnzPerRow"`
	ChunkRows int `json:"chunkRows"`
	Sockets   int `json:"sockets"`
	Threads   int `json:"threads,omitempty"`
}

type stencilConfigWire struct {
	NX      int `json:"nx"`
	NY      int `json:"ny"`
	TileX   int `json:"tileX"`
	TileY   int `json:"tileY"`
	Sockets int `json:"sockets"`
	Threads int `json:"threads,omitempty"`
}

// affinityWire renders the affinity policy by its stable name; decoding
// rejects unknown names rather than guessing.
func affinityWire(a hw.Affinity) string { return a.String() }

func parseAffinity(s string) (hw.Affinity, error) {
	switch s {
	case "close":
		return hw.AffinityClose, nil
	case "spread":
		return hw.AffinitySpread, nil
	default:
		return 0, fmt.Errorf("bench: unknown affinity %q", s)
	}
}

// MarshalConfig encodes a configuration as its versioned JSON envelope.
func MarshalConfig(c Config) ([]byte, error) {
	var (
		variant string
		fields  any
	)
	switch cfg := c.(type) {
	case DGEMMConfig:
		variant = "DGEMMConfig"
		fields = dgemmConfigWire{N: cfg.N, M: cfg.M, K: cfg.K, Sockets: cfg.Sockets, Threads: cfg.Threads}
	case TriadConfig:
		variant = "TriadConfig"
		fields = triadConfigWire{Elements: cfg.Elements, Affinity: affinityWire(cfg.Affinity), Sockets: cfg.Sockets, Threads: cfg.Threads}
	case SpMVConfig:
		variant = "SpMVConfig"
		fields = spmvConfigWire{N: cfg.N, NNZPerRow: cfg.NNZPerRow, ChunkRows: cfg.ChunkRows, Sockets: cfg.Sockets, Threads: cfg.Threads}
	case StencilConfig:
		variant = "StencilConfig"
		fields = stencilConfigWire{NX: cfg.NX, NY: cfg.NY, TileX: cfg.TileX, TileY: cfg.TileY, Sockets: cfg.Sockets, Threads: cfg.Threads}
	case nil:
		return nil, fmt.Errorf("bench: MarshalConfig(nil)")
	default:
		return nil, fmt.Errorf("bench: MarshalConfig: unsupported config variant %T", c)
	}
	raw, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	return json.Marshal(configWire{Variant: variant, Fields: raw})
}

// configDecoders maps variant names to decoders. UnmarshalConfig and the
// wire tests iterate it; TestWireVariantsExhaustive asserts its key set
// equals the configsum variant census.
var configDecoders = map[string]func(json.RawMessage) (Config, error){
	"DGEMMConfig": func(raw json.RawMessage) (Config, error) {
		var w dgemmConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		return DGEMMConfig{N: w.N, M: w.M, K: w.K, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
	"TriadConfig": func(raw json.RawMessage) (Config, error) {
		var w triadConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		aff, err := parseAffinity(w.Affinity)
		if err != nil {
			return nil, err
		}
		return TriadConfig{Elements: w.Elements, Affinity: aff, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
	"SpMVConfig": func(raw json.RawMessage) (Config, error) {
		var w spmvConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		return SpMVConfig{N: w.N, NNZPerRow: w.NNZPerRow, ChunkRows: w.ChunkRows, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
	"StencilConfig": func(raw json.RawMessage) (Config, error) {
		var w stencilConfigWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		return StencilConfig{NX: w.NX, NY: w.NY, TileX: w.TileX, TileY: w.TileY, Sockets: w.Sockets, Threads: w.Threads}, nil
	},
}

// WireVariants returns the sorted variant names the wire layer can
// decode — the census the exhaustiveness test compares against
// configsum.Variants.
func WireVariants() []string {
	names := make([]string, 0, len(configDecoders))
	for name := range configDecoders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// UnmarshalConfig decodes a configuration envelope. An empty envelope
// decodes to a nil Config (an Outcome from a test fake may carry none);
// an unknown variant is an error, never a silently dropped winner.
func UnmarshalConfig(data []byte) (Config, error) {
	var w configWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("bench: config envelope: %w", err)
	}
	if w.Variant == "" && w.Fields == nil {
		return nil, nil
	}
	dec, ok := configDecoders[w.Variant]
	if !ok {
		return nil, fmt.Errorf("bench: unknown config variant %q on the wire", w.Variant)
	}
	c, err := dec(w.Fields)
	if err != nil {
		return nil, fmt.Errorf("bench: decoding %s: %w", w.Variant, err)
	}
	return c, nil
}

// metricWire names each metric stably on the wire.
var metricNames = map[Metric]string{
	MetricFlops:     "flops",
	MetricBandwidth: "bandwidth",
}

// MarshalJSON encodes the metric by name.
func (m Metric) MarshalJSON() ([]byte, error) {
	name, ok := metricNames[m]
	if !ok {
		return nil, fmt.Errorf("bench: unknown metric %d", int(m))
	}
	return json.Marshal(name)
}

// UnmarshalJSON decodes a metric name.
func (m *Metric) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for metric, n := range metricNames {
		if n == name {
			*m = metric
			return nil
		}
	}
	return fmt.Errorf("bench: unknown metric %q", name)
}

// stopReasonNames names each stop reason stably on the wire.
var stopReasonNames = map[StopReason]string{
	StopNone:       "none",
	StopMaxTime:    "max-time",
	StopMaxCount:   "max-count",
	StopConfidence: "confidence",
	StopBound:      "bound",
}

// MarshalJSON encodes the stop reason by name.
func (r StopReason) MarshalJSON() ([]byte, error) {
	name, ok := stopReasonNames[r]
	if !ok {
		return nil, fmt.Errorf("bench: unknown stop reason %d", int(r))
	}
	return json.Marshal(name)
}

// UnmarshalJSON decodes a stop reason name.
func (r *StopReason) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for reason, n := range stopReasonNames {
		if n == name {
			*r = reason
			return nil
		}
	}
	return fmt.Errorf("bench: unknown stop reason %q", name)
}

// invocationWire mirrors InvocationResult on the wire. Durations travel
// as integer nanoseconds and floats as JSON numbers — both encodings
// round-trip exactly, which is what lets a cached Result render
// byte-identically to the run that produced it.
type invocationWire struct {
	Mean     float64        `json:"mean"`
	Samples  int            `json:"samples"`
	Measured int64          `json:"measuredNs"`
	Reason   StopReason     `json:"reason"`
	CI       stats.Interval `json:"ci"`
}

// outcomeWire mirrors Outcome on the wire.
type outcomeWire struct {
	Key          string           `json:"key"`
	Describe     string           `json:"describe"`
	Metric       Metric           `json:"metric"`
	Config       json.RawMessage  `json:"config,omitempty"`
	Mean         float64          `json:"mean"`
	Invocations  []invocationWire `json:"invocations,omitempty"`
	InnerStops   int              `json:"innerStops,omitempty"`
	Pruned       bool             `json:"pruned,omitempty"`
	Elapsed      int64            `json:"elapsedNs"`
	TotalSamples int              `json:"totalSamples"`
}

// MarshalJSON encodes the outcome with its typed config in the variant
// envelope, so a winner crosses the wire as structured identity rather
// than a parsed key string.
func (o Outcome) MarshalJSON() ([]byte, error) {
	w := outcomeWire{
		Key:          o.Key,
		Describe:     o.Describe,
		Metric:       o.Metric,
		Mean:         o.Mean,
		InnerStops:   o.InnerStops,
		Pruned:       o.Pruned,
		Elapsed:      int64(o.Elapsed),
		TotalSamples: o.TotalSamples,
	}
	if o.Config != nil {
		raw, err := MarshalConfig(o.Config)
		if err != nil {
			return nil, err
		}
		w.Config = raw
	}
	for _, inv := range o.Invocations {
		w.Invocations = append(w.Invocations, invocationWire{
			Mean:     inv.Mean,
			Samples:  inv.Samples,
			Measured: int64(inv.Measured),
			Reason:   inv.Reason,
			CI:       inv.CI,
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes an outcome, rejecting unknown config variants.
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var w outcomeWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := Outcome{
		Key:          w.Key,
		Describe:     w.Describe,
		Metric:       w.Metric,
		Mean:         w.Mean,
		InnerStops:   w.InnerStops,
		Pruned:       w.Pruned,
		Elapsed:      time.Duration(w.Elapsed),
		TotalSamples: w.TotalSamples,
	}
	if len(w.Config) > 0 {
		cfg, err := UnmarshalConfig(w.Config)
		if err != nil {
			return err
		}
		out.Config = cfg
	}
	for _, inv := range w.Invocations {
		out.Invocations = append(out.Invocations, InvocationResult{
			Mean:     inv.Mean,
			Samples:  inv.Samples,
			Measured: time.Duration(inv.Measured),
			Reason:   inv.Reason,
			CI:       inv.CI,
		})
	}
	*o = out
	return nil
}
