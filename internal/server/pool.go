package server

import (
	"fmt"
	"sync"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/relation"
)

// pool is one deployment (nodes, seed) the server simulates: its catalog
// and the core.RunnerPool concurrent executions lease their runners from.
// A returned runner is reset (clock, counters, Stats), so a query's
// result does not depend on what its runner ran before, and an idle
// daemon's runners hold nothing of their last query.
type pool struct {
	key     poolKey
	cat     relation.Catalog
	runners *core.RunnerPool
}

type poolKey struct {
	nodes int
	seed  int64
}

func (k poolKey) String() string { return fmt.Sprintf("%d/%d", k.nodes, k.seed) }

// maxPools bounds the distinct deployments one server will simulate;
// each holds a cached deployment + routing tree, so an unbounded map
// would let clients exhaust memory.
const maxPools = 8

func newPool(k poolKey, maxPacket, capacity int, built *metrics.Counter) (*pool, error) {
	cfg := core.SetupConfig{Nodes: k.nodes, Seed: k.seed}
	if maxPacket > 0 {
		cfg.Radio.MaxPacket = maxPacket
	}
	runners, err := core.NewRunnerPool(cfg, capacity)
	if err != nil {
		return nil, err
	}
	runners.CountBuilt(built)
	// The pool's first runner donates the catalog.
	r, err := runners.Get()
	if err != nil {
		return nil, err
	}
	cat := r.Catalog
	runners.Put(r)
	return &pool{key: k, cat: cat, runners: runners}, nil
}

// poolFor returns (creating on first use) the pool for a deployment.
func (s *Server) poolFor(nodes int, seed int64) (*pool, error) {
	if nodes == 0 {
		nodes = s.cfg.Nodes
	}
	if seed == 0 {
		seed = s.cfg.Seed
	}
	k := poolKey{nodes: nodes, seed: seed}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if p, ok := s.pools[k]; ok {
		return p, nil
	}
	if len(s.pools) >= maxPools {
		return nil, fmt.Errorf("server: %d distinct deployments already simulated; not adding %v", len(s.pools), k)
	}
	p, err := newPool(k, s.cfg.MaxPacket, s.cfg.MaxConcurrent, s.met.runnersBuilt)
	if err != nil {
		return nil, err
	}
	s.pools[k] = p
	return p, nil
}

// preparedCache maps queries to their compiled plans in two key spaces:
// by exact source text (hit skips even the parse) and by canonical
// fingerprint (differently spelled but canonically equal queries share
// one Prepared; hit skips analysis and kernel compilation). Both keys
// are scoped by deployment, since a Prepared binds a catalog.
type preparedCache struct {
	mu    sync.Mutex
	bySrc map[cacheKey]*core.Prepared
	byFP  map[cacheKey]*core.Prepared
	met   *serverMetrics
}

// cacheKey scopes a source text or a fingerprint by deployment. A struct
// key, unlike a concatenated string, costs a hit no allocation.
type cacheKey struct {
	pool poolKey
	s    string
}

// maxCacheEntries bounds the cache; overflowing resets it wholesale (a
// serving workload has a small set of live shapes, so an overflow means
// adversarial or generated queries — starting over is cheap and keeps
// the code free of eviction-order bookkeeping).
const maxCacheEntries = 4096

func newPreparedCache(met *serverMetrics) *preparedCache {
	return &preparedCache{
		bySrc: make(map[cacheKey]*core.Prepared),
		byFP:  make(map[cacheKey]*core.Prepared),
		met:   met,
	}
}

// lookup returns the prepared form of src for pool p, preparing and
// caching it on miss. The second return reports a cache hit.
func (c *preparedCache) lookup(p *pool, src string) (*core.Prepared, bool, error) {
	srcKey := cacheKey{p.key, src}
	c.mu.Lock()
	if prep, ok := c.bySrc[srcKey]; ok {
		c.mu.Unlock()
		c.met.cacheHits.Inc()
		return prep, true, nil
	}
	c.mu.Unlock()

	prep, err := core.Prepare(p.cat, src)
	if err != nil {
		return nil, false, err
	}
	fpKey := cacheKey{p.key, prep.Fingerprint()}

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bySrc) >= maxCacheEntries || len(c.byFP) >= maxCacheEntries {
		c.bySrc = make(map[cacheKey]*core.Prepared)
		c.byFP = make(map[cacheKey]*core.Prepared)
	}
	hit := false
	if canon, ok := c.byFP[fpKey]; ok {
		// A canonically equal query was prepared before; its compiled
		// plan computes the identical table, so alias this spelling to
		// it. (This request still paid the parse, but the cache now
		// serves the new spelling without one.)
		prep = canon
		hit = true
		c.met.cacheHits.Inc()
	} else {
		c.byFP[fpKey] = prep
		c.met.cacheMisses.Inc()
	}
	c.bySrc[srcKey] = prep
	return prep, hit, nil
}
