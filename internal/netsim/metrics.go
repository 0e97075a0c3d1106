package netsim

import "sensjoin/internal/metrics"

// Live instrumentation of the simulator and radio layer.
//
// Instruments are stored by value with nil-safe pointers inside, so the
// zero value (metrics off) costs one predicted branch per call site and
// no allocations — the send/deliver path keeps its 0 allocs/event
// guarantee (TestSendDeliverZeroAllocs, TestEventLoopAllocs).

// SimMetrics instruments the event loop.
type SimMetrics struct {
	// Events counts executed simulator events: one per node of a batch
	// (ScheduleNodes), whatever the queue held for them.
	Events *metrics.Counter
	// Queue tracks the event-queue depth in entries. A collection wave
	// queues one entry per (tree level, region), so during a round this
	// reads tree depth plus messages in flight, not the node count.
	Queue *metrics.Gauge
}

// NewSimMetrics registers the event-loop instruments on r. Counters are
// cumulative across every simulation sharing the registry. A nil
// registry yields no-op instruments.
func NewSimMetrics(r *metrics.Registry) SimMetrics {
	return SimMetrics{
		Events: r.Counter("sensjoin_netsim_events_total", "simulator events executed"),
		Queue:  r.Gauge("sensjoin_netsim_queue_depth", "pending entries in the simulator queue (a batch of node deadlines is one)"),
	}
}

// SetMetrics installs event-loop instruments (zero value disables).
func (s *Sim) SetMetrics(m SimMetrics) { s.met = m }

// NetMetrics instruments the radio layer: traffic, failure modes and the
// reliable transport. Network.record writes them as it charges each
// radio action, so a scrape during a run reads live counts; give-ups are
// counted when drain reports them.
type NetMetrics struct {
	tx, rx     *metrics.Counter // packets transmitted / received
	drop, lost *metrics.Counter // failed deliveries / loss-model removals
	retx, ack  *metrics.Counter // reliable retransmissions / ACKs transmitted
	dup        *metrics.Counter // suppressed duplicate deliveries
	giveUp     *metrics.Counter // reliable transfers that exhausted retries
	inFlight   *metrics.Gauge   // reliable transfers in flight
}

// NewNetMetrics registers the radio instruments on r. A nil registry
// yields no-op instruments.
func NewNetMetrics(r *metrics.Registry) NetMetrics {
	return NetMetrics{
		tx:       r.Counter("sensjoin_netsim_tx_packets_total", "packets transmitted, reliable-transport ACKs included"),
		rx:       r.Counter("sensjoin_netsim_rx_packets_total", "packets received, reliable-transport ACKs included"),
		drop:     r.Counter("sensjoin_netsim_dropped_total", "messages dropped (link down or receiver dead)"),
		lost:     r.Counter("sensjoin_netsim_lost_total", "messages removed by the loss model"),
		retx:     r.Counter("sensjoin_netsim_retx_total", "reliable-transport retransmission attempts"),
		ack:      r.Counter("sensjoin_netsim_ack_tx_total", "link-layer acknowledgements transmitted"),
		dup:      r.Counter("sensjoin_netsim_dup_rx_total", "duplicate deliveries suppressed"),
		giveUp:   r.Counter("sensjoin_netsim_giveups_total", "reliable transfers that exhausted retransmissions"),
		inFlight: r.Gauge("sensjoin_netsim_reliable_inflight", "reliable transfers in flight"),
	}
}

// SetMetrics installs radio instruments (zero value disables).
func (n *Network) SetMetrics(m NetMetrics) { n.met = m }

// ChurnMetrics instruments the churn & mobility injector.
type ChurnMetrics struct {
	Deaths    *metrics.Counter // nodes taken offline
	Rejoins   *metrics.Counter // dead nodes revived
	Moves     *metrics.Counter // mobility steps that flipped a link
	LinkFlaps *metrics.Counter // individual link state changes
	Ticks     *metrics.Counter // churn epochs executed
}

// NewChurnMetrics registers the churn instruments on r. A nil registry
// yields no-op instruments.
func NewChurnMetrics(r *metrics.Registry) ChurnMetrics {
	return ChurnMetrics{
		Deaths:    r.Counter("sensjoin_churn_deaths_total", "nodes killed by the churn injector"),
		Rejoins:   r.Counter("sensjoin_churn_rejoins_total", "dead nodes revived by the churn injector"),
		Moves:     r.Counter("sensjoin_churn_moves_total", "mobility steps that changed link reachability"),
		LinkFlaps: r.Counter("sensjoin_churn_link_flaps_total", "link state changes caused by mobility"),
		Ticks:     r.Counter("sensjoin_churn_ticks_total", "churn epochs executed"),
	}
}
