package core

import (
	"fmt"
	"sort"
	"strings"

	"sensjoin/internal/query"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
	"sensjoin/internal/zorder"
)

// Multi-query optimization: shared execution of concurrent continuous
// joins. With N continuous queries over one deployment, independent
// execution repeats the three SENS-Join phases N times per epoch even
// when the queries overlap heavily. A QueryGroup instead clusters
// *compatible* queries — same FROM shape, join attributes, shipped
// attributes and (canonically equal) local predicates, so every member
// induces the identical per-node plan — and runs each cluster as ONE
// protocol round per epoch:
//
//   - one Join-Attribute-Collection wave (phase A) feeds all members;
//   - one filter broadcast carries the UNION of the per-query filters
//     plus an m-bit membership mask per key (m = cluster size), so a
//     node knows exactly which queries want its tuple;
//   - one collection wave (phase C) ships a tuple matching k queries
//     once, tagged with a compact query-membership bitmap, and the base
//     station fans it back out to per-query result tables through the
//     exact-join kernel.
//
// The protocol is not implemented here. A cluster's round is
// SENSJoin.round (sensjoin.go) over the cluster's m executions — the body
// a single query runs with m = 1. Masks, their wire bytes, the per-node
// mask state and the sensjoin_mqo_* counters exist iff m > 1, so a
// cluster of one is exactly an independent continuous run; what stays in
// this file is clustering, RunRound, the mask helpers and the per-member
// fan-out span. A cluster's round runs through the attempt loop a lone
// query runs through (Runner.attempts), so whatever a lone round composes
// with — tracing, the six audits, scoped recovery and repair,
// WithRecovery, the sharded engine — a shared round does too.
//
// The incremental symmetric-difference machinery of incremental.go is
// reused unchanged for the union filter: across epochs only the union's
// drift re-disseminates, shared by the whole cluster (the masks are
// small — m bits per key — and ship fully each epoch).
//
// Correctness: cluster members share the node set, flags, quantized
// keys and tuple sizes by construction of the compatibility key, so one
// phase-A wave is exact for all of them. The union filter is a superset
// of every member's filter, and a per-key mask bit j is set iff the key
// is in member j's filter; a tuple reaches member j's table iff its
// mask has bit j, which makes each table exactly what member j's own
// filter would have collected (supersets add no rows to an exact join).
// Assume-all fallbacks set the full mask — a further superset per
// query. Under reliable transport the per-query tables are
// byte-identical to independent runs (the recovered tuple set is sorted
// by node id before the final join); under best-effort delivery the row
// SETS are identical but arrival order may differ.

// maxClusterQueries bounds one cluster so the membership mask fits a
// uint64. Further compatible queries open a new cluster.
const maxClusterQueries = 64

// QueryGroup is a set of concurrent continuous queries executed with
// shared dissemination and collection.
type QueryGroup struct {
	// Options tune the underlying SENS-Join; the zero value selects the
	// paper's defaults.
	Options Options

	queries  []*groupQuery
	clusters []*qgCluster
	rounds   int
}

// groupQuery is one registered query.
type groupQuery struct {
	p       *Prepared
	cluster *qgCluster
	bit     int // index within the cluster (mask bit)
	idx     int // index within the group (result slot)
	// tag is the member's own trace ID: shared-round journal events
	// carry the group's ambient tag, except each member's fan-out span,
	// which carries this one (SetMemberTag).
	tag string
}

// qgCluster is a set of compatible queries sharing one protocol round
// per epoch. Its SENSJoin owns the cluster's incremental filter state.
type qgCluster struct {
	key     string
	members []*groupQuery
	sens    *SENSJoin
}

// NewQueryGroup returns an empty group with the given method options.
func NewQueryGroup(o Options) *QueryGroup {
	return &QueryGroup{Options: o}
}

// Add registers a continuous query with the group and returns its index
// (the result slot in RunRound's output). Compatible queries — same
// relations, join attributes, shipped attributes and canonically equal
// local predicates — land in the same cluster.
func (g *QueryGroup) Add(p *Prepared) (int, error) {
	if p.Relations() < 2 {
		return 0, fmt.Errorf("core: %q has %d relation(s); shared execution needs joins", p.src, p.Relations())
	}
	if !p.Shareable() {
		return 0, fmt.Errorf("core: query %q has no join attributes; SENS-Join needs join conditions", p.src)
	}
	gq := &groupQuery{p: p, idx: len(g.queries)}
	key := compatKey(p.query, p.analysis)
	for _, c := range g.clusters {
		if c.key == key && len(c.members) < maxClusterQueries {
			gq.cluster = c
			gq.bit = len(c.members)
			c.members = append(c.members, gq)
			break
		}
	}
	if gq.cluster == nil {
		c := &qgCluster{key: key, members: []*groupQuery{gq}, sens: NewContinuousSENSJoin()}
		c.sens.Options = g.Options
		gq.cluster = c
		g.clusters = append(g.clusters, c)
	}
	g.queries = append(g.queries, gq)
	return gq.idx, nil
}

// compatKey renders everything that shapes the per-node plan: two
// queries with equal keys induce identical node flags, quantized keys
// and tuple sizes, which is what lets one collection wave serve both.
// Join conditions are deliberately absent — they only shape the
// per-query filter the base station computes, and the shared broadcast
// carries the union.
func compatKey(q *query.Query, a *query.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "from=%d;", len(q.From))
	for i, ref := range q.From {
		fmt.Fprintf(&b, "[%d]rel=%s ja=%v sh=%v lp=", i, ref.Relation, a.JoinAttrs[i], a.ShippedAttrs[i])
		preds := make([]string, 0, len(a.LocalPreds[i]))
		for _, pr := range a.LocalPreds[i] {
			preds = append(preds, query.Canonical(pr).String())
		}
		sort.Strings(preds)
		b.WriteString(strings.Join(preds, "&"))
		b.WriteByte(';')
	}
	return b.String()
}

// Len returns the number of registered queries.
func (g *QueryGroup) Len() int { return len(g.queries) }

// Clusters returns the number of shared-execution clusters.
func (g *QueryGroup) Clusters() int { return len(g.clusters) }

// ClusterOf returns the cluster ordinal of query idx (clusters are
// numbered in first-registration order).
func (g *QueryGroup) ClusterOf(idx int) int {
	for ci, c := range g.clusters {
		if c == g.queries[idx].cluster {
			return ci
		}
	}
	return -1
}

// Rounds reports completed shared rounds.
func (g *QueryGroup) Rounds() int { return g.rounds }

// SetMemberTag attributes query idx's per-member journal events (its
// result fan-out at the base station) to the given trace ID. The shared
// round's common events carry whatever ambient tag the recorder holds.
func (g *QueryGroup) SetMemberTag(idx int, tag string) {
	g.queries[idx].tag = tag
}

// maskAll returns the m-bit all-ones mask (m <= 64; at m == 64 the
// shift wraps to 0 and the subtraction yields all ones, as intended).
func maskAll(m int) uint64 { return uint64(1)<<uint(m) - 1 }

// maskBytes is the wire size of n per-key masks of m bits each. A
// cluster of one has nobody to tell apart: no masks, no bytes.
func maskBytes(n, m int) int {
	if m == 1 {
		return 0
	}
	return (n*m + 7) / 8
}

// perTupleMaskBytes is the wire size of one tuple's membership bitmap
// (none at m == 1).
func perTupleMaskBytes(m int) int { return maskBytes(1, m) }

// findKey locates k in the sorted key set, or -1.
func findKey(keys []zorder.Key, k zorder.Key) int {
	i := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
	if i < len(keys) && keys[i] == k {
		return i
	}
	return -1
}

// realignMasks projects the masks of filter onto its subset sub (both
// sorted): the pruned broadcast keeps each surviving key's mask.
func realignMasks(filter []zorder.Key, masks []uint64, sub []zorder.Key) []uint64 {
	out := make([]uint64, len(sub))
	fi := 0
	for i, k := range sub {
		for fi < len(filter) && filter[fi] < k {
			fi++
		}
		if fi < len(filter) && filter[fi] == k {
			out[i] = masks[fi]
		}
	}
	return out
}

// RunRound executes one shared epoch of every registered query at
// snapshot time t and returns the per-query results, indexed by the
// query indices Add returned. Incompatible clusters run sequentially;
// within a cluster all members share one protocol round, run like a lone
// query's (Runner.attempts): counted once per attempt, re-run by
// WithRecovery while any member is incomplete, and audited with every
// member's result; each member's Result.Violations holds what its
// cluster's round produced. Filter
// soundness is necessarily per cluster: the union filter only suppresses
// a key no MEMBER of that cluster wants — a node another cluster's query
// needs may be legitimately suppressed here.
func (g *QueryGroup) RunRound(r *Runner, t float64, opts ...RunOption) ([]*Result, error) {
	if len(g.queries) == 0 {
		return nil, fmt.Errorf("core: empty query group")
	}
	o := gatherOptions(opts)
	if r.Metrics != nil {
		r.Metrics.MQOGroups.Set(int64(len(g.clusters)))
	}
	results := make([]*Result, len(g.queries))
	for _, c := range g.clusters {
		ps := make([]*Prepared, len(c.members))
		for j, gq := range c.members {
			ps[j] = gq.p
		}
		// A group adds attribution to the round body: each member's fan-out
		// span carries the member's own trace ID, the one event of the
		// round that is not the group's.
		out, err := r.attempts(ps, c.sens, t, o, func(execs []*Exec) ([]*Result, error) {
			return c.sens.round(execs, func(j int, at float64, rows int) {
				execs[0].Trace.SpanTagged(at, trace.KindFanout, topology.BaseStation, -1,
					PhaseFinalCollect, rows, c.members[j].tag)
			})
		})
		if err != nil {
			return nil, err
		}
		for j, gq := range c.members {
			results[gq.idx] = out[j]
		}
	}
	g.rounds++
	return results, nil
}
