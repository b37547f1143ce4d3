package rooftune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"rooftune/internal/bench"
	"rooftune/internal/sweep"
)

// fingerprintSchema versions the canonical rendering Fingerprint hashes.
// Bump it whenever the rendering below changes meaning: a bumped schema
// re-keys every content-addressed cache built on fingerprints, which is
// exactly what must happen when the identity contract moves.
const fingerprintSchema = "rooftune-fingerprint-v1"

// Fingerprint returns the session's content address: the hex SHA-256 of
// a canonical rendering of everything that determines its Result —
// engine and system identity, seed, the full evaluation budget, the
// chaining mode and case-shard count, and the resolved plan graph down
// to every planned case's typed configuration (bench.ConfigCanonical).
// Two sessions with equal fingerprints produce byte-identical Results on
// simulated targets, which is what lets a serving tier memoize outcomes:
// a cache keyed on the fingerprint returns a stored Result only to
// requests that would have re-measured exactly the same thing.
//
// Execution-schedule knobs that do not move the Result are excluded on
// purpose: WithSerial and WithHostParallelism change which hardware runs
// the schedule, never which configurations win (asserted by the
// determinism suites), so a loaded daemon sharing its host budget across
// sessions still hits the cache entries an idle one wrote. The case-shard
// count is included — sharded evaluation also pays for speculative
// evaluations and therefore reports a different SearchTime — and a caching tier must pin
// it (WithCaseShards(1)), because under the adaptive default (0) the
// shard pool is sized from the host cap and the search-cost accounting
// would vary across hosts sharing a fingerprint.
//
// Native sessions fingerprint too (the engine identity and thread count
// distinguish them from every simulated build), but two hosts sharing a
// fingerprint are not comparable hardware: memoize native results only
// within one machine.
//
// The fingerprint is computed once per Session, from the plan graph New
// already validated (native sessions plan it here), and memoized.
func (s *Session) Fingerprint() (string, error) {
	s.fpOnce.Do(func() { s.fp, s.fpErr = s.fingerprint() })
	return s.fp, s.fpErr
}

// fingerprint renders and hashes the canonical identity; Fingerprint
// memoizes it.
func (s *Session) fingerprint() (string, error) {
	target, res := s.target()
	nodes := s.graph
	if nodes == nil {
		var err error
		if nodes, _, err = s.plan(target, &Result{}, func(Event) {}); err != nil {
			return "", err
		}
	}
	canon, err := s.canonical(res, nodes)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// canonical renders the identity Fingerprint hashes: the schema line,
// one key=value line per session parameter, then one "node=" line per
// plan node followed by one "case=" line per planned case. The case
// loop runs hundreds of times per campaign, so everything appends into
// one presized buffer with strconv.
//
//rooflint:hotpath
func (s *Session) canonical(res *Result, nodes []sweep.Node) ([]byte, error) {
	size := 512
	for _, n := range nodes {
		size += 64 + fingerprintCaseBytes*len(n.Spec.Cases)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, fingerprintSchema...)
	buf = append(append(buf, "\nengine="...), res.Engine...)
	buf = append(append(buf, "\nsystem="...), res.SystemName...)
	buf = strconv.AppendUint(append(buf, "\nseed="...), s.cfg.seed, 10)
	buf = strconv.AppendInt(append(buf, "\nthreads="...), int64(s.cfg.threads), 10)
	buf = s.cfg.budget.AppendCanonical(append(buf, "\nbudget="...))
	buf = strconv.AppendBool(append(buf, "\nchain="...), s.cfg.chain)
	buf = strconv.AppendInt(append(buf, "\ncaseShards="...), int64(s.cfg.caseShards), 10)
	buf = append(buf, '\n')
	for _, n := range nodes {
		seedFrom := n.SeedFrom
		if !s.cfg.chain {
			// Without chaining the edges are stripped before execution,
			// so they are not part of what the run measures.
			seedFrom = ""
		}
		buf = append(append(buf, "node="...), n.ID...)
		buf = append(append(buf, " seedFrom="...), seedFrom...)
		buf = append(append(buf, " sweep="...), n.Spec.Name...)
		buf = append(buf, '\n')
		for _, c := range n.Spec.Cases {
			cfg := c.Config()
			if cfg == nil {
				return nil, fmt.Errorf("rooftune: Fingerprint: sweep %s case %s carries no typed config", n.Spec.Name, c.Key())
			}
			var err error
			if buf, err = bench.AppendConfigCanonical(append(buf, "case="...), cfg); err != nil {
				return nil, fmt.Errorf("rooftune: Fingerprint: sweep %s: %w", n.Spec.Name, err)
			}
			buf = append(append(buf, " metric="...), c.Metric().Unit()...)
			buf = append(buf, '\n')
		}
	}
	return buf, nil
}

// fingerprintCaseBytes bounds a typical rendered case line (50–95
// bytes), so the buffer is sized once up front; a longer line only
// costs a regrow.
const fingerprintCaseBytes = 96
