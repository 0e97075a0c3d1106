// Package server implements sensjoind: a long-running daemon that
// executes sensjoin queries for many concurrent client sessions over
// the length-prefixed wire protocol of internal/proto.
//
// Architecture (one box per concern):
//
//   - Sessions: one TCP connection each, a read loop dispatching frames
//     and a write loop serializing responses through a bounded queue.
//     Queries pipeline: a session may have many in flight, demultiplexed
//     by client-chosen IDs.
//   - Admission control: a global bound on admitted queries (queued +
//     executing) rejects excess load with an explicit over-capacity
//     error instead of letting latency and memory grow without bound; a
//     global execution semaphore sizes the actual parallelism.
//   - Runner pools: core.Runner is not concurrency-safe, so concurrent
//     executions lease runners from a per-deployment core.RunnerPool,
//     which resets each one on return; the shared deployment cache
//     (core/cache.go) makes overflow runners cheap.
//   - Prepared-query cache: compiled plans keyed by canonical query
//     fingerprint (and by exact source), shared by all sessions — see
//     pool.go.
//   - One execution loop: every admitted query runs in an execution — a
//     query alone is an execution of one member, a shared batch of
//     compatible continuous queries (group.go) an execution of many
//     whose round is a core.QueryGroup's. execute leases the runner,
//     traces, runs the epochs, files the flight records and answers
//     every member.
//   - Drain: Close runs epoch 0 of every admitted query and delivers
//     what ran before it ends each session.
//
// Everything is instrumented through the sensjoind_* families of the
// metrics registry (see metrics.go).
package server

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/proto"
	"sensjoin/internal/query"
	"sensjoin/internal/trace"
)

// Config tunes a Server; zero values select the documented defaults.
type Config struct {
	// Nodes/Seed describe the default deployment (defaults 150 / 1).
	Nodes int
	Seed  int64
	// MaxPacket overrides the radio's maximum packet size (0 = paper
	// default).
	MaxPacket int
	// MaxSessions bounds concurrently open sessions (default 256).
	MaxSessions int
	// MaxConcurrent bounds concurrently executing queries (default
	// GOMAXPROCS, at least 2).
	MaxConcurrent int
	// MaxQueue bounds admitted-but-waiting queries beyond MaxConcurrent;
	// excess submissions are rejected with CodeOverCapacity (default
	// 4*MaxConcurrent).
	MaxQueue int
	// IdleTimeout closes sessions with no inbound frame for this long
	// (default 5m).
	IdleTimeout time.Duration
	// QueryTimeout bounds one epoch's execution. Expiry frees the
	// execution slot, answers the query with CodeTimeout and abandons
	// the runner — a wedged execution can no longer starve the semaphore
	// (default 5m).
	QueryTimeout time.Duration
	// BatchWindow is how long the first compatible continuous query
	// waits for companions before its group starts (default 25ms).
	BatchWindow time.Duration
	// TraceSample is the fraction of queries (0..1) whose full span
	// tree is captured into the flight recorder; 0 disables span
	// capture (the flight recorder still records every query's
	// operational facts).
	TraceSample float64
	// FlightSize bounds the flight recorder's ring of recent queries
	// (default 256).
	FlightSize int
	// Registry receives the sensjoind_* instruments (nil = private
	// registry, metrics effectively off).
	Registry *metrics.Registry
	// Logger receives the server's operational logs (nil = a text
	// handler on stderr); embedders silence or redirect the server by
	// passing their own.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 150
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = max(2, runtime.GOMAXPROCS(0))
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 5 * time.Minute
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 25 * time.Millisecond
	}
	if c.FlightSize <= 0 {
		c.FlightSize = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c
}

// Server is a running sensjoind instance.
type Server struct {
	cfg Config
	met *serverMetrics
	ln  net.Listener
	log *slog.Logger

	flight   *FlightRecorder
	traceSeq atomic.Int64

	execSem chan struct{}
	queued  atomic.Int64

	mu       sync.Mutex // sessions, closed, queryWG admission
	closed   bool
	sessions map[int64]*session
	nextSID  int64

	closing chan struct{}
	sessWG  sync.WaitGroup // accept loop + session read/write loops
	queryWG sync.WaitGroup // in-flight queries (admission to finish)

	poolMu sync.Mutex
	pools  map[poolKey]*pool

	prep *preparedCache
	hub  *groupHub
}

// Listen starts a server on addr ("host:port"; ":0" picks a free port).
// The default deployment is built (or fetched from the shared cache)
// before Listen returns, so a reachable server is ready to execute.
func Listen(addr string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		met:      newServerMetrics(cfg.Registry),
		log:      cfg.Logger,
		flight:   newFlightRecorder(cfg.FlightSize),
		execSem:  make(chan struct{}, cfg.MaxConcurrent),
		sessions: make(map[int64]*session),
		closing:  make(chan struct{}),
		pools:    make(map[poolKey]*pool),
	}
	s.prep = newPreparedCache(s.met)
	s.hub = newGroupHub(s)
	if _, err := s.poolFor(0, 0); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.sessWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Flight returns the server's flight recorder: the ring of recent
// query executions behind /debug/queries.
func (s *Server) Flight() *FlightRecorder { return s.flight }

const (
	// maxRounds caps one periodic query's epochs.
	maxRounds = 1000
	// drainTimeout bounds how long Close waits for admitted queries.
	drainTimeout = 10 * time.Second
)

// traceID returns the query's trace ID: client-supplied or
// server-assigned.
func (s *Server) traceID(ss *session, q proto.Query) string {
	if q.TraceID != "" {
		return q.TraceID
	}
	return fmt.Sprintf("q-%d-%d-%d", ss.id, q.ID, s.traceSeq.Add(1))
}

// Close drains and stops the server. No new session or query is
// admitted. Every admitted query runs epoch 0, however early Close
// comes, and a continuous one stops after the epoch it is in. Once they
// are all answered, each session gets a last, session-level
// Error{Code: shutdown} behind everything already queued for it, and
// closes when its write loop has flushed that. Queries still running
// after 10 s are dropped and their sessions torn down at once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.closing)
	err := s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.queryWG.Wait()
		close(done)
	}()
	drained := true
	select {
	case <-done:
	case <-time.After(drainTimeout):
		drained = false
		s.log.Warn("drain timeout; dropping in-flight queries", "after", drainTimeout)
	}

	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		open = append(open, ss)
	}
	s.mu.Unlock()
	bye := outFrame{kind: proto.KindError, last: true,
		msg: proto.Error{Code: proto.CodeShutdown, Msg: "server is shutting down"}}
	for _, ss := range open {
		// One goroutine a session: a client that stops reading holds up
		// its own goodbye (enqueue's backpressure timeout), not the others.
		s.sessWG.Add(1)
		go func() {
			defer s.sessWG.Done()
			if !drained || !ss.enqueue(bye) {
				ss.teardown()
			}
		}()
	}
	s.sessWG.Wait()
	return err
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.sessWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosing() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Error("accept", "err", err)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			refuse(conn, proto.CodeShutdown, "server is shutting down")
			continue
		}
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			s.met.rejected.Inc()
			refuse(conn, proto.CodeOverCapacity,
				fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions))
			continue
		}
		s.nextSID++
		ss := &session{
			s:      s,
			id:     s.nextSID,
			conn:   conn,
			out:    make(chan outFrame, 256),
			quit:   make(chan struct{}),
			active: make(map[int64]*runningQuery),
		}
		s.sessions[ss.id] = ss
		s.mu.Unlock()
		s.met.sessions.Inc()
		s.met.sessionsTotal.Inc()
		s.sessWG.Add(2)
		go ss.readLoop()
		go ss.writeLoop()
	}
}

// refuse answers a connection the server will not serve with a
// session-level Error frame, then closes it.
func refuse(conn net.Conn, code, msg string) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	proto.WriteFrame(conn, proto.KindError, proto.Error{Code: code, Msg: msg})
	conn.Close()
}

// outFrame is one queued response frame. The write loop ends the
// session once it has flushed a frame marked last, and releases the
// result of an epoch once it has written the epoch's EpochEnd.
type outFrame struct {
	kind    byte
	msg     any
	last    bool
	release *core.Result
}

// queryOf returns the ID of the query a response message answers, 0
// for a session-level message.
func queryOf(msg any) int64 {
	switch m := msg.(type) {
	case proto.Header:
		return m.ID
	case proto.RowsOf[core.Row]:
		return m.ID
	case proto.EpochEnd:
		return m.ID
	case proto.Done:
		return m.ID
	case proto.Error:
		return m.ID
	}
	return 0
}

// runningQuery is the cancel handle of one in-flight query.
type runningQuery struct {
	cancel     chan struct{}
	cancelOnce sync.Once
}

func (rq *runningQuery) doCancel() { rq.cancelOnce.Do(func() { close(rq.cancel) }) }

func (rq *runningQuery) canceled() bool {
	select {
	case <-rq.cancel:
		return true
	default:
		return false
	}
}

// session is one client connection.
type session struct {
	s    *Server
	id   int64
	conn net.Conn
	out  chan outFrame
	quit chan struct{}

	killOnce sync.Once
	mu       sync.Mutex
	active   map[int64]*runningQuery
}

// teardown kills the session exactly once: the connection closes (which
// unblocks the read loop), the write loop exits, every in-flight query
// is canceled, and the server forgets the session.
func (ss *session) teardown() {
	ss.killOnce.Do(func() {
		close(ss.quit)
		ss.conn.Close()
		ss.mu.Lock()
		for _, rq := range ss.active {
			rq.doCancel()
		}
		ss.mu.Unlock()
		ss.s.mu.Lock()
		delete(ss.s.sessions, ss.id)
		ss.s.mu.Unlock()
		ss.s.met.sessions.Dec()
	})
}

// send queues a response frame. It returns false (and on persistent
// backpressure kills the session) when the frame cannot be delivered.
func (ss *session) send(kind byte, msg any) bool {
	return ss.enqueue(outFrame{kind: kind, msg: msg})
}

func (ss *session) enqueue(f outFrame) bool {
	select {
	case ss.out <- f:
		return true
	case <-ss.quit:
		return false
	default:
	}
	t := time.NewTimer(10 * time.Second)
	defer t.Stop()
	select {
	case ss.out <- f:
		return true
	case <-ss.quit:
		return false
	case <-t.C:
		ss.s.log.Warn("client not draining responses; dropping session", "session", ss.id)
		ss.teardown()
		return false
	}
}

// cancelQuery stops query id if it is still in flight.
func (ss *session) cancelQuery(id int64) {
	ss.mu.Lock()
	rq := ss.active[id]
	ss.mu.Unlock()
	if rq != nil {
		rq.doCancel()
	}
}

// violation answers a protocol violation with an Error frame and ends
// the session. It returns once the write loop has flushed the answer
// and torn the session down; the read loop returning any earlier would
// close the connection under the frame.
func (ss *session) violation(id int64, msg string) {
	if ss.enqueue(outFrame{
		kind: proto.KindError, last: true,
		msg: proto.Error{ID: id, Code: proto.CodeProto, Msg: msg},
	}) {
		<-ss.quit
	}
}

// sendErr and sendDone queue a query's terminal frame. The query leaves
// admission first: a client that submits its next query the moment it
// reads the frame must find the slot free, or a closed loop of exactly
// MaxConcurrent+MaxQueue callers is refused now and then for no reason
// but scheduling.
func (ss *session) sendErr(id int64, code, msg string) bool {
	ss.leave(id)
	return ss.send(proto.KindError, proto.Error{ID: id, Code: code, Msg: msg})
}

func (ss *session) sendDone(id int64, epochs int) bool {
	ss.leave(id)
	return ss.send(proto.KindDone, proto.Done{ID: id, Epochs: epochs})
}

func (ss *session) writeLoop() {
	defer ss.s.sessWG.Done()
	bw := bufio.NewWriter(ss.conn)
	for {
		select {
		case f := <-ss.out:
			ss.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			err := proto.WriteFrame(bw, f.kind, f.msg)
			if err != nil {
				err = ss.answerEncodeFailure(bw, f.msg, err)
			}
			// Every chunk of the epoch was queued before its EpochEnd and
			// is encoded by now: nothing reads the result's rows again.
			f.release.Release()
			if err == nil && (f.last || len(ss.out) == 0) {
				err = bw.Flush()
			}
			if err != nil || f.last {
				ss.teardown()
				return
			}
		case <-ss.quit:
			bw.Flush()
			return
		}
	}
}

// answerEncodeFailure handles a WriteFrame error. A message the codec
// could not render put nothing on the wire, so it costs only the query
// it belonged to: that query is canceled and answered with an exec
// error. Any other error (or a session-level message) is returned and
// ends the session.
func (ss *session) answerEncodeFailure(bw *bufio.Writer, msg any, err error) error {
	var enc *proto.EncodeError
	id := queryOf(msg)
	if !errors.As(err, &enc) || id == 0 {
		return err
	}
	ss.s.log.Warn("result not encodable; failing the query", "session", ss.id, "id", id, "err", err)
	ss.cancelQuery(id)
	return proto.WriteFrame(bw, proto.KindError, proto.Error{ID: id, Code: proto.CodeExec, Msg: err.Error()})
}

func (ss *session) readLoop() {
	defer ss.s.sessWG.Done()
	defer ss.teardown()
	// One body for the connection's frames: each payload is decoded
	// (the decoder copies what it keeps) before the next is read over it.
	fr := proto.NewFrameReader(bufio.NewReader(ss.conn))

	ss.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	kind, payload, err := fr.Next()
	if err != nil {
		return
	}
	var hello proto.Hello
	if kind != proto.KindHello || proto.Decode(payload, &hello) != nil {
		// An older client's Hello is JSON, which the layout refuses.
		ss.violation(0, fmt.Sprintf("expected a protocol version %d Hello", proto.Version))
		return
	}
	if hello.Version != proto.Version {
		ss.violation(0, fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, proto.Version))
		return
	}
	if !ss.send(proto.KindHelloOK, proto.HelloOK{
		Version: proto.Version, Session: ss.id,
		Nodes: ss.s.cfg.Nodes, Seed: ss.s.cfg.Seed,
	}) {
		return
	}

	for {
		ss.conn.SetReadDeadline(time.Now().Add(ss.s.cfg.IdleTimeout))
		kind, payload, err := fr.Next()
		if err != nil {
			return
		}
		switch kind {
		case proto.KindQuery:
			var q proto.Query
			if proto.Decode(payload, &q) != nil {
				ss.violation(0, "bad Query payload")
				return
			}
			if !ss.submit(q) {
				return
			}
		case proto.KindCancel:
			var c proto.Cancel
			if proto.Decode(payload, &c) != nil {
				ss.violation(0, "bad Cancel payload")
				return
			}
			ss.cancelQuery(c.ID)
		case proto.KindBye:
			return
		default:
			ss.violation(0, fmt.Sprintf("unexpected frame kind %d", kind))
			return
		}
	}
}

// submit admits one query. A false return is a protocol violation that
// ends the session; admission rejections answer with an Error frame and
// keep the session alive.
func (ss *session) submit(q proto.Query) bool {
	s := ss.s
	if q.ID <= 0 {
		ss.violation(q.ID, "query ID must be positive")
		return false
	}
	ss.mu.Lock()
	_, dup := ss.active[q.ID]
	ss.mu.Unlock()
	if dup {
		ss.violation(q.ID, fmt.Sprintf("query ID %d already in flight", q.ID))
		return false
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ss.sendErr(q.ID, proto.CodeShutdown, "server is shutting down")
		return true
	}
	if s.queued.Load() >= int64(s.cfg.MaxQueue+s.cfg.MaxConcurrent) {
		s.mu.Unlock()
		s.met.rejected.Inc()
		ss.sendErr(q.ID, proto.CodeOverCapacity,
			fmt.Sprintf("admission limit %d reached; retry later", s.cfg.MaxQueue+s.cfg.MaxConcurrent))
		return true
	}
	s.queryWG.Add(1) // under s.mu: Close sets closed before waiting
	s.met.queueDepth.Set(s.queued.Add(1))
	s.mu.Unlock()
	s.met.queries.Inc()

	rq := &runningQuery{cancel: make(chan struct{})}
	ss.mu.Lock()
	ss.active[q.ID] = rq
	ss.mu.Unlock()
	go s.runQuery(ss, q, rq)
	return true
}

// leave releases query id's admission slot, once: the terminal frame
// does it on the way out, finish for a query that ends without one. It
// does nothing for an id that was never admitted (a refused query is
// answered through sendErr too).
func (ss *session) leave(id int64) {
	ss.mu.Lock()
	_, admitted := ss.active[id]
	delete(ss.active, id)
	ss.mu.Unlock()
	if admitted {
		ss.s.met.queueDepth.Set(ss.s.queued.Add(-1))
	}
}

// finish ends an admitted query; called exactly once per admitted
// query, after its last frame is queued (Close waits on it before it
// tears the sessions down).
func (ss *session) finish(id int64) {
	ss.leave(id)
	ss.s.queryWG.Done()
}

// acquire takes an execution slot for x's next epoch. A query that runs
// alone gives up when it is canceled (a session teardown cancels its
// queries); a shared batch outlives any one member's cancelation and
// waits. Drain does not abort it: admitted queries run.
func (s *Server) acquire(x *execution) bool {
	var cancel <-chan struct{} // nil: never ready
	if len(x.members) == 1 {
		cancel = x.members[0].rq.cancel
	}
	select {
	case s.execSem <- struct{}{}:
		s.met.activeQueries.Inc()
		return true
	case <-cancel:
		return false
	}
}

func (s *Server) release() {
	<-s.execSem
	s.met.activeQueries.Dec()
}

// runQuery plans one admitted query and hands it to an execution: a
// shareable continuous SENS-Join query to the group hub's batch, any
// other query to an execution of its own.
func (s *Server) runQuery(ss *session, q proto.Query, rq *runningQuery) {
	handedOff := false
	defer func() {
		if !handedOff {
			ss.finish(q.ID)
		}
	}()

	method := q.Method
	if method == "" {
		method = "sens"
	}
	if method != "sens" && method != "external" {
		ss.sendErr(q.ID, proto.CodeParse, fmt.Sprintf("unknown method %q (want sens or external)", method))
		return
	}
	if math.IsNaN(q.At) || math.IsInf(q.At, 0) {
		// The wire carries any float; a snapshot time must be a time.
		ss.sendErr(q.ID, proto.CodeParse, fmt.Sprintf("snapshot time %v is not finite", q.At))
		return
	}
	pl, err := s.poolFor(q.Nodes, q.Seed)
	if err != nil {
		s.met.rejected.Inc()
		ss.sendErr(q.ID, proto.CodeOverCapacity, err.Error())
		return
	}
	prep, hit, err := s.prep.lookup(pl, q.Src)
	if err != nil {
		ss.sendErr(q.ID, proto.CodeParse, err.Error())
		return
	}
	continuous := prep.Mode() == query.Periodic
	m := &member{ss: ss, prep: prep, rq: rq, rounds: 1, rec: QueryRecord{
		TraceID: s.traceID(ss, q), Session: ss.id, ID: q.ID, Src: q.Src, Method: method,
		ClusterSize: 1, CacheHit: hit,
	}}
	if continuous {
		m.rounds = min(max(q.Rounds, 1), maxRounds)
	}

	handedOff = true
	if continuous && method == "sens" && prep.Shareable() {
		s.hub.enqueue(m, pl, q.At)
		return
	}
	meth := methodInstance(method, continuous)
	s.execute(&execution{
		pool: pl, at: q.At, period: prep.Period(), members: []*member{m},
		round: func(r *core.Runner, t float64, opts ...core.RunOption) ([]*core.Result, error) {
			res, err := r.RunPrepared(prep, meth, t, opts...)
			return []*core.Result{res}, err
		},
	})
}

// methodInstance builds a fresh method value for one query.
func methodInstance(name string, continuous bool) core.Method {
	if name == "external" {
		return core.External{}
	}
	if continuous {
		return core.NewContinuousSENSJoin()
	}
	return core.NewSENSJoin()
}

// member is one admitted query inside an execution.
type member struct {
	ss     *session
	prep   *core.Prepared
	rq     *runningQuery
	rounds int // epochs the client asked for, at most maxRounds

	rec    QueryRecord // its flight record, filled in as it runs
	dead   bool        // a frame could not be queued: send nothing more
	failed proto.Error // the error that ended the execution, if one did
}

// wants reports whether the member takes epoch e's table.
func (m *member) wants(e int) bool {
	return !m.dead && !m.rq.canceled() && e < m.rounds
}

// emit queues epoch e's table, after the Header on the first.
func (m *member) emit(e int, t float64, res *core.Result) {
	if m.rec.Epochs == 0 && !m.ss.send(proto.KindHeader, proto.Header{
		ID: m.rec.ID, Columns: res.Columns, CacheHit: m.rec.CacheHit,
		Shared: m.rec.Shared, ClusterSize: m.rec.ClusterSize,
		TraceID: m.rec.TraceID, Sampled: m.rec.Sampled,
	}) || !m.ss.emitEpoch(m.rec.ID, e, t, res) {
		m.dead = true
		return
	}
	m.rec.Epochs++
	m.rec.Rows += len(res.Rows)
	m.rec.Complete = res.Complete
	m.rec.IncompleteReason = ""
	if !res.Complete && len(res.MissingSubtrees) > 0 {
		m.rec.IncompleteReason = fmt.Sprintf("%d missing subtree(s)", len(res.MissingSubtrees))
	}
}

// execution is one run of the epoch loop: a query on its own, or a
// shared batch of continuous queries. Its round runs one epoch for all
// members at once and returns their results in member order.
type execution struct {
	pool    *pool
	at      float64 // epoch 0's snapshot time
	period  float64
	members []*member
	round   func(r *core.Runner, t float64, opts ...core.RunOption) ([]*core.Result, error)
	opts    []core.RunOption // every round's options: Traced when sampled
	// shared marks a round that is a core.QueryGroup's, which the
	// sensjoind_shared_* counters count.
	shared bool
}

// wanted reports whether any member takes epoch e's table.
func (x *execution) wanted(e int) bool {
	for _, m := range x.members {
		if m.wants(e) {
			return true
		}
	}
	return false
}

// fail ends the execution with an error for every member still reachable.
func (x *execution) fail(code, msg string) {
	for _, m := range x.members {
		if !m.dead {
			m.failed = proto.Error{Code: code, Msg: msg}
			m.rec.Error = code + ": " + msg
		}
	}
}

// execute runs an execution and answers its members. The execution's
// trace ID is its member's own, or g-N for a batch of several, whose
// own record then holds the shared radio timeline; each member's span
// tree is its own slice of the journal. Records are filed before the
// terminal frames (Done, or the error that ended the execution) are
// queued, so a client that has read Done finds its record.
func (s *Server) execute(x *execution) {
	start := time.Now()
	tag := x.members[0].rec.TraceID
	if len(x.members) > 1 {
		tag = fmt.Sprintf("g-%d", s.traceSeq.Add(1))
	}
	sampled := s.cfg.TraceSample >= 1 ||
		(s.cfg.TraceSample > 0 && rand.Float64() < s.cfg.TraceSample)
	for _, m := range x.members {
		m.rec.Sampled = sampled
		if len(x.members) > 1 {
			m.rec.Group = tag
		}
	}
	if x.shared {
		s.met.sharedQueries.Add(int64(len(x.members)))
	}
	if sampled {
		s.met.tracedQueries.Add(int64(len(x.members)))
	}
	epochs, spans := s.runEpochs(x, tag, sampled)

	var phases []PhaseLatency
	if spans != nil {
		phases = phaseBreakdown(spans)
		s.met.observePhases(phases)
	}
	total := time.Since(start).Seconds()
	if sampled && len(x.members) > 1 {
		s.flight.Record(QueryRecord{
			TraceID: tag, Src: fmt.Sprintf("<shared group of %d>", len(x.members)),
			Method: "sens", Shared: true, ClusterSize: len(x.members),
			Epochs: epochs, Complete: true,
			Phases: phases, TotalSeconds: total, Sampled: true,
		}, spans)
	}
	for _, m := range x.members {
		m.rec.Phases, m.rec.TotalSeconds = phases, total
		s.flight.Record(m.rec, filterByTrace(spans, m.rec.TraceID))
		s.log.Debug("query finished",
			"trace", m.rec.TraceID, "session", m.ss.id, "id", m.rec.ID,
			"epochs", m.rec.Epochs, "rows", m.rec.Rows, "complete", m.rec.Complete,
			"err", m.rec.Error, "seconds", total)
	}
	for _, m := range x.members {
		switch {
		case m.failed.Code != "":
			m.ss.sendErr(m.rec.ID, m.failed.Code, m.failed.Msg)
		case !m.dead:
			m.ss.sendDone(m.rec.ID, m.rec.Epochs)
		}
		m.ss.finish(m.rec.ID)
	}
}

// runEpochs runs x's epochs on one leased runner — the incremental
// filter state of a continuous query or a group spans them — and
// returns how many ran and, when sampled, the journal they wrote under
// tag. An epoch runs while some member wants it; drain stops every
// epoch but the first, so an admitted query always runs epoch 0.
//
// The runner is leased inside epoch 0's execution slot and handed back
// inside the last epoch's, before the slot is released: a query queued
// for a slot holds no runner, and the one that takes the slot next finds
// its predecessor's runner idle. So one-shot executions never lease more
// runners than there are slots, which is what the pool keeps, and a
// closed loop with more queries outstanding than slots runs on warm
// runners instead of building ones the pool then drops.
func (s *Server) runEpochs(x *execution, tag string, sampled bool) (int, []trace.Event) {
	if !x.wanted(0) || !s.acquire(x) {
		return 0, nil
	}
	r, err := x.pool.runners.Get()
	if err != nil {
		s.release()
		x.fail(proto.CodeExec, err.Error())
		return 0, nil
	}
	// A sampled execution journals every epoch into its own recorder,
	// which the runner no longer writes once an epoch has returned.
	var tr *trace.Recorder
	if sampled {
		tr = trace.New()
		tr.SetTag(tag)
		x.opts = []core.RunOption{core.Traced(tr)}
	}
	spans := func() []trace.Event {
		if tr == nil {
			return nil
		}
		return tr.Journal().Events
	}
	for e := 0; ; e++ {
		t := x.at + float64(e)*x.period
		began := time.Now()
		results, err, timedOut := bounded(s.cfg.QueryTimeout, func() ([]*core.Result, error) {
			return x.round(r, t, x.opts...)
		})
		took := time.Since(began)
		last := timedOut || err != nil || !x.wanted(e+1) || s.isClosing()
		if last && !timedOut && err == nil {
			// An error may leave the runner mid-execution: it does not
			// go back to the pool.
			x.pool.runners.Put(r)
		}
		s.release()
		s.met.querySeconds.Observe(took.Seconds())
		if x.shared {
			s.met.sharedRounds.Inc()
		}
		if timedOut {
			s.met.queryTimeouts.Inc()
			x.fail(proto.CodeTimeout, fmt.Sprintf("epoch %d exceeded the %v execution deadline", e, s.cfg.QueryTimeout))
			// The abandoned epoch still writes the runner and its
			// recorder: neither is read again.
			return e, nil
		}
		if err != nil {
			x.fail(proto.CodeExec, err.Error())
			return e, spans()
		}
		for k, m := range x.members {
			if m.wants(e) {
				m.emit(e, t, results[k])
			} else {
				results[k].Release()
			}
		}
		if last {
			return e + 1, spans()
		}
		if !x.wanted(e+1) || s.isClosing() || !s.acquire(x) {
			x.pool.runners.Put(r)
			return e + 1, spans()
		}
	}
}

// bounded runs one epoch or shared round, bounded by timeout. On expiry
// the execution goroutine cannot be killed — it is abandoned together
// with its runner, and the caller must not return the runner to the
// pool; what the deadline reclaims is the execution slot and the
// client's query. The deadline is authoritative: a result that arrives
// after it is a timeout too, so which of two ready select arms Go picks
// does not decide a query's outcome.
func bounded[T any](timeout time.Duration, run func() (T, error)) (res T, err error, timedOut bool) {
	type outcome struct {
		res T
		err error
	}
	done := make(chan outcome, 1) // buffered: an abandoned execution still exits
	start := time.Now()
	go func() {
		var out outcome
		out.res, out.err = run()
		done <- out
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case out := <-done:
		if time.Since(start) < timeout {
			return out.res, out.err, false
		}
	case <-timer.C:
	}
	return res, nil, true
}

// emitEpoch streams one epoch's table as Rows chunks plus an EpochEnd.
// The chunks alias res.Rows until the write loop has encoded them, so
// the result is released by the write loop, at its EpochEnd: the session
// queue is FIFO and has one reader, so by then every chunk is encoded. A
// session torn down before that never releases the result; the collector
// takes it.
func (ss *session) emitEpoch(id int64, epoch int, t float64, res *core.Result) bool {
	const chunk = 512
	for i := 0; i < len(res.Rows); i += chunk {
		if !ss.send(proto.KindRows, proto.RowsOf[core.Row]{
			ID: id, Epoch: epoch, Total: len(res.Rows),
			Rows: res.Rows[i:min(i+chunk, len(res.Rows))],
		}) {
			return false
		}
	}
	return ss.enqueue(outFrame{kind: proto.KindEpochEnd, release: res, msg: proto.EpochEnd{
		ID: id, Epoch: epoch, Time: t,
		RowCount: len(res.Rows), Complete: res.Complete,
		Contributing: res.ContributingNodes, Members: res.MemberNodes,
		ResponseTime: res.ResponseTime,
	}})
}
