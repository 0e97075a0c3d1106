package netsim

import (
	"math"
	"math/rand"

	"sensjoin/internal/geom"
)

// Churn & mobility fault injection.
//
// A Churn drives scheduled node deaths, rejoins and random-waypoint
// mobility through the simulator's coordinator queue: every tick is a
// coordinator event and every random draw comes from one seeded stream
// consumed in tick order, so a run with churn replays bit-identically for
// the same seed. Mobility never mutates the shared topology.Deployment —
// the injector keeps its own position copy and expresses reachability
// changes by toggling original neighbor-graph links via LinkDown/LinkUp
// as nodes drift out of and back into radio range (links can only
// disappear and reappear; no new links form, so neighbor lists, slot
// schedules and audits keep their meaning).
//
// The ticks mutate cross-node state (the dead flags and the down-link
// map), which node events only read. A coordinator event runs with every
// region stopped, before the node events of its instant, so a tick lands
// at the same point of every node's event order under any partition, and
// churn runs sharded, bit-identical at any shard or worker count.

// ChurnEventKind classifies an injector event.
type ChurnEventKind uint8

const (
	// ChurnDeath is a node taken offline.
	ChurnDeath ChurnEventKind = iota
	// ChurnRejoin is a dead node brought back online.
	ChurnRejoin
	// ChurnMove is a mobility step that flipped at least one link;
	// Arg carries the number of links that changed state.
	ChurnMove
)

// ChurnEvent is one injector action, reported through Churn.OnEvent so
// the trace layer can journal it (netsim cannot import trace).
type ChurnEvent struct {
	At   Time
	Kind ChurnEventKind
	Node NodeID
	Arg  int
}

// ChurnConfig tunes the injector. The zero value of every field but
// Rate selects a sensible default; Rate 0 disables events entirely
// (ticks still fire if scheduled, but draw nothing — a rate-0 injector
// that is never attached leaves runs byte-identical to no churn).
type ChurnConfig struct {
	// Seed seeds the injector's private draw stream.
	Seed int64
	// Rate is the per-node probability of a churn event per epoch.
	Rate float64
	// Epoch is the tick period in simulated seconds (default 30).
	Epoch Time
	// DeathShare is the fraction of churn events that are deaths; the
	// rest are mobility events (default 0.15).
	DeathShare float64
	// RejoinProb is the per-epoch probability that a dead node comes
	// back online (default 0.5).
	RejoinProb float64
	// Speed is the waypoint movement speed in m/s (default 1).
	Speed float64
	// WanderFactor scales the waypoint distance: a move event picks a
	// target within WanderFactor×Range of the node's home (deployment)
	// position (default 1.5). Anchoring waypoints at home keeps mobility
	// stationary — nodes drift out of range and back — instead of a
	// diffusive random walk that strands ever more of the network out of
	// radio reach.
	WanderFactor float64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Epoch == 0 {
		c.Epoch = 30
	}
	if c.DeathShare == 0 {
		c.DeathShare = 0.15
	}
	if c.RejoinProb == 0 {
		c.RejoinProb = 0.5
	}
	if c.Speed == 0 {
		c.Speed = 1
	}
	if c.WanderFactor == 0 {
		c.WanderFactor = 1.5
	}
	return c
}

// Churn is the fault injector. Create with NewChurn, then call
// Cover(until) before each execution window so ticks are scheduled
// exactly as far as the simulation is about to run (Sim.Run drains every
// queue, so pre-scheduling ticks to a far horizon would make all of them
// fire during the first round).
type Churn struct {
	cfg ChurnConfig
	net *Network
	rng *rand.Rand

	// pos is the injector-owned position copy; Dep.Pos stays immutable.
	// home keeps the original deployment positions that waypoint draws
	// anchor to.
	pos    []geom.Point
	home   []geom.Point
	target []geom.Point
	moving []bool
	// downed tracks the links this injector took down, so it never
	// re-raises a link some other failure injection owns.
	downed map[linkKey]bool
	// next is the index of the first tick not yet scheduled; tick k
	// fires at k×Epoch.
	next int

	met ChurnMetrics

	// OnEvent observes every death, rejoin and link-flipping move.
	OnEvent func(ev ChurnEvent)

	// Counters, cumulative across the injector's lifetime.
	Deaths, Rejoins, Moves, LinkFlaps, Ticks int
}

// NewChurn attaches a churn injector to the network.
func NewChurn(n *Network, cfg ChurnConfig) *Churn {
	cfg = cfg.withDefaults()
	c := &Churn{
		cfg:    cfg,
		net:    n,
		rng:    rand.New(rand.NewSource(int64(splitmix(uint64(cfg.Seed)) & (1<<63 - 1)))),
		pos:    append([]geom.Point(nil), n.Dep.Pos...),
		home:   append([]geom.Point(nil), n.Dep.Pos...),
		target: make([]geom.Point, n.Dep.N()),
		moving: make([]bool, n.Dep.N()),
		downed: make(map[linkKey]bool),
		next:   1,
	}
	return c
}

// SetMetrics installs live instruments (zero value disables).
func (c *Churn) SetMetrics(m ChurnMetrics) { c.met = m }

// Config returns the effective configuration (defaults applied).
func (c *Churn) Config() ChurnConfig { return c.cfg }

// Cover schedules the churn ticks not yet scheduled up to and including
// until. Call it before each Sim.Run window; ticks that would land
// before the current simulated time are skipped (they cannot be injected
// into the past), and covered time never rewinds. Every instant is
// computed from its integer index, so ticks stay on the fixed k×Epoch
// grid however execution windows slice the timeline and whatever the
// epoch's binary representation.
func (c *Churn) Cover(until Time) {
	now := c.net.Sim.Now()
	for ; Time(c.next)*c.cfg.Epoch <= until; c.next++ {
		at := Time(c.next) * c.cfg.Epoch
		if at < now {
			continue
		}
		c.net.Sim.Schedule(at, func() { c.tick(at) })
	}
}

// tick is one churn epoch: advance movers and flip the links their
// drift crossed, then draw deaths, rejoins and new movements per node in
// ascending id order. The draw order is fixed, so the stream replays.
func (c *Churn) tick(at Time) {
	c.Ticks++
	c.met.Ticks.Inc()
	n := c.net.Dep.N()
	// Phase 1: movement. Every currently-moving node advances toward its
	// waypoint; links of moved nodes are re-evaluated against the radio
	// range. Dead nodes stay frozen where they fell.
	step := c.cfg.Speed * c.cfg.Epoch
	for id := 1; id < n; id++ {
		if !c.moving[id] || !c.net.Alive(NodeID(id)) {
			continue
		}
		c.advance(NodeID(id), step)
		flips := c.refreshLinks(NodeID(id))
		if flips > 0 {
			c.Moves++
			c.met.Moves.Inc()
			c.emit(ChurnEvent{At: at, Kind: ChurnMove, Node: NodeID(id), Arg: flips})
		}
	}
	if c.cfg.Rate <= 0 {
		return
	}
	// Phase 2: event draws, one pass in ascending id order. The base
	// station is exempt: the paper's protocols have no story for a dying
	// sink, and neither does this reproduction.
	for id := 1; id < n; id++ {
		nid := NodeID(id)
		if !c.net.Alive(nid) {
			if c.rng.Float64() < c.cfg.RejoinProb {
				c.net.ReviveNode(nid)
				c.Rejoins++
				c.met.Rejoins.Inc()
				c.emit(ChurnEvent{At: at, Kind: ChurnRejoin, Node: nid})
			}
			continue
		}
		if c.rng.Float64() >= c.cfg.Rate {
			continue
		}
		if c.rng.Float64() < c.cfg.DeathShare {
			c.net.KillNode(nid)
			c.Deaths++
			c.met.Deaths.Inc()
			c.emit(ChurnEvent{At: at, Kind: ChurnDeath, Node: nid})
			continue
		}
		// Mobility event: pick a fresh waypoint within the wander radius
		// of the node's home position and start (or redirect) the drift.
		// Draws are consumed even when the node was already moving,
		// keeping the stream aligned.
		ang := c.rng.Float64() * 2 * math.Pi
		rad := c.cfg.WanderFactor * c.net.Dep.Range * math.Sqrt(c.rng.Float64())
		c.target[id] = geom.Point{X: c.home[id].X + rad*math.Cos(ang), Y: c.home[id].Y + rad*math.Sin(ang)}
		c.moving[id] = true
	}
}

// advance moves id one step toward its waypoint. A mobility event is a
// round trip: a node that reaches an away waypoint turns back toward
// home (no RNG draw — the stream stays aligned), and a node that
// reaches home stops. Without the return leg a rarely-redrawn waypoint
// would strand nodes out of radio range for hundreds of epochs.
func (c *Churn) advance(id NodeID, step float64) {
	p, t := c.pos[id], c.target[id]
	d := geom.Dist(p, t)
	if d > step {
		f := step / d
		c.pos[id] = geom.Point{X: p.X + f*(t.X-p.X), Y: p.Y + f*(t.Y-p.Y)}
		return
	}
	c.pos[id] = t
	if t != c.home[id] {
		c.target[id] = c.home[id]
		return
	}
	c.moving[id] = false
}

// refreshLinks re-evaluates every original neighbor link of id against
// the injector's current positions, taking links down as the node
// drifts out of range and raising the ones it took down when the node
// drifts back. Returns the number of links that changed state.
func (c *Churn) refreshLinks(id NodeID) int {
	flips := 0
	r2 := c.net.Dep.Range * c.net.Dep.Range
	for _, v := range c.net.Dep.Neighbors[id] {
		key := mkLink(id, v)
		inRange := geom.Dist2(c.pos[id], c.pos[v]) <= r2
		switch {
		case !inRange && !c.downed[key]:
			c.net.LinkDown(id, v)
			c.downed[key] = true
			flips++
			c.LinkFlaps++
			c.met.LinkFlaps.Inc()
		case inRange && c.downed[key]:
			c.net.LinkUp(id, v)
			delete(c.downed, key)
			flips++
			c.LinkFlaps++
			c.met.LinkFlaps.Inc()
		}
	}
	return flips
}

func (c *Churn) emit(ev ChurnEvent) {
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}
