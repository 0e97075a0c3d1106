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
//   - Shared execution: compatible continuous queries arriving within a
//     batch window run as one core.QueryGroup protocol round per epoch —
//     see group.go.
//
// Everything is instrumented through the sensjoind_* families of the
// metrics registry (see metrics.go).
package server

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
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
	// MaxRounds caps one periodic query's epochs (default 1000).
	MaxRounds int
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
	// DrainTimeout bounds how long Close waits for in-flight queries
	// (default 10s).
	DrainTimeout time.Duration
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
	if c.MaxRounds <= 0 {
		c.MaxRounds = 1000
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
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
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

// assignTrace returns the query's trace ID (client-supplied or
// server-assigned) and whether this execution is sampled for full span
// capture.
func (s *Server) assignTrace(ss *session, q proto.Query) (string, bool) {
	id := q.TraceID
	if id == "" {
		id = fmt.Sprintf("q-%d-%d-%d", ss.id, q.ID, s.traceSeq.Add(1))
	}
	sampled := s.cfg.TraceSample >= 1 ||
		(s.cfg.TraceSample > 0 && rand.Float64() < s.cfg.TraceSample)
	return id, sampled
}

// Close drains and stops the server: no new sessions or queries are
// admitted, in-flight queries get up to DrainTimeout to finish (the
// epoch loops of continuous queries end early), then every session is
// torn down.
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
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.log.Warn("drain timeout; dropping in-flight queries", "after", s.cfg.DrainTimeout)
	}

	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		open = append(open, ss)
	}
	s.mu.Unlock()
	for _, ss := range open {
		ss.teardown()
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
// session once it has flushed a frame marked last.
type outFrame struct {
	kind byte
	msg  any
	last bool
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
	// (JSON copies what it keeps) before the next is read over it.
	fr := proto.NewFrameReader(bufio.NewReader(ss.conn))

	ss.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	kind, payload, err := fr.Next()
	if err != nil {
		return
	}
	var hello proto.Hello
	if kind != proto.KindHello || proto.Decode(payload, &hello) != nil {
		ss.violation(0, "expected Hello")
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

// acquire takes an execution slot, giving up on cancel or session
// death. Server drain does NOT abort it: admitted queries run.
func (s *Server) acquire(ss *session, rq *runningQuery) bool {
	select {
	case s.execSem <- struct{}{}:
		s.met.activeQueries.Inc()
		return true
	case <-rq.cancel:
		return false
	case <-ss.quit:
		return false
	}
}

func (s *Server) release() {
	<-s.execSem
	s.met.activeQueries.Dec()
}

// runQuery plans one admitted query and routes it to independent or
// shared execution.
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
	rounds := 1
	if prep.Mode() == query.Periodic {
		rounds = q.Rounds
		if rounds <= 0 {
			rounds = 1
		}
		rounds = min(rounds, s.cfg.MaxRounds)
	}

	if prep.Mode() == query.Periodic && method == "sens" && prep.Shareable() {
		handedOff = true
		s.hub.enqueue(&groupSub{
			ss: ss, q: q, prep: prep, hit: hit, rq: rq, rounds: rounds,
		}, pl)
		return
	}
	s.runIndependent(ss, q, pl, prep, hit, rq, rounds, method)
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

// runIndependent executes a query on its own runner: the one-shot path
// and any continuous query shared execution cannot take.
func (s *Server) runIndependent(ss *session, q proto.Query, pl *pool,
	prep *core.Prepared, hit bool, rq *runningQuery, rounds int, method string) {
	traceID, sampled := s.assignTrace(ss, q)
	rec := QueryRecord{
		TraceID: traceID, Session: ss.id, ID: q.ID, Src: q.Src, Method: method,
		ClusterSize: 1, CacheHit: hit, Sampled: sampled,
	}
	var spans []trace.Event
	wallStart := time.Now()
	defer func() {
		rec.TotalSeconds = time.Since(wallStart).Seconds()
		s.flight.Record(rec, spans)
		s.log.Debug("query finished",
			"trace", traceID, "session", ss.id, "id", q.ID,
			"epochs", rec.Epochs, "rows", rec.Rows, "complete", rec.Complete,
			"err", rec.Error, "seconds", rec.TotalSeconds)
	}()

	r, err := pl.runners.Get()
	if err != nil {
		rec.Error = proto.CodeExec + ": " + err.Error()
		ss.sendErr(q.ID, proto.CodeExec, err.Error())
		return
	}
	var tr *trace.Recorder
	var mark int
	if sampled {
		s.met.tracedQueries.Inc()
		tr = r.EnableTrace()
		tr.SetTag(traceID)
		mark = tr.Mark()
	}
	// capture copies the sampled span tree out of the runner's recorder
	// and feeds the per-phase histograms. It must NOT run while the
	// runner is still executing (the timeout path abandons one
	// mid-flight), so that path nils tr first.
	capture := func() {
		if tr == nil {
			return
		}
		j := tr.JournalSince(mark)
		spans = append([]trace.Event(nil), j.Events...)
		rec.Phases = phaseBreakdown(spans)
		s.met.observePhases(rec.Phases)
		tr = nil
	}
	defer capture()

	m := methodInstance(method, prep.Mode() == query.Periodic)
	headerSent := false
	for e := 0; e < rounds; e++ {
		if rq.canceled() || (e > 0 && s.isClosing()) {
			break
		}
		if !s.acquire(ss, rq) {
			break
		}
		t := q.At + float64(e)*prep.Period()
		start := time.Now()
		res, err, timedOut := bounded(s.cfg.QueryTimeout, func() (*core.Result, error) {
			return r.RunPrepared(prep, m, t)
		})
		s.release()
		s.met.querySeconds.Observe(time.Since(start).Seconds())
		if timedOut {
			s.met.queryTimeouts.Inc()
			tr = nil // the abandoned epoch still writes the recorder
			rec.Error = proto.CodeTimeout
			rec.IncompleteReason = "execution deadline exceeded"
			ss.sendErr(q.ID, proto.CodeTimeout,
				fmt.Sprintf("epoch %d exceeded the %v execution deadline", e, s.cfg.QueryTimeout))
			return // runner abandoned mid-execution: do not return it to the pool
		}
		if err != nil {
			rec.Error = proto.CodeExec + ": " + err.Error()
			capture()
			ss.sendErr(q.ID, proto.CodeExec, err.Error())
			return // runner possibly mid-execution: do not return it to the pool
		}
		if !headerSent {
			if !ss.send(proto.KindHeader, proto.Header{
				ID: q.ID, Columns: res.Columns, CacheHit: hit, ClusterSize: 1,
				TraceID: traceID, Sampled: sampled,
			}) {
				return
			}
			headerSent = true
		}
		if !ss.emitEpoch(q.ID, e, t, res) {
			return
		}
		rec.Epochs++
		rec.Rows += len(res.Rows)
		rec.Complete = res.Complete
		rec.IncompleteReason = ""
		if !res.Complete && len(res.MissingSubtrees) > 0 {
			rec.IncompleteReason = fmt.Sprintf("%d missing subtree(s)", len(res.MissingSubtrees))
		}
	}
	capture()
	if sampled {
		tr2 := r.Trace
		r.DisableTrace()
		tr2.Truncate(0) // drop the retained journal before pooling
	}
	pl.runners.Put(r)
	ss.sendDone(q.ID, rec.Epochs)
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
// The chunks alias res.Rows until the write loop has encoded them; a
// Result's rows are never written again once the kernel returns it.
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
	return ss.send(proto.KindEpochEnd, proto.EpochEnd{
		ID: id, Epoch: epoch, Time: t,
		RowCount: len(res.Rows), Complete: res.Complete,
		Contributing: res.ContributingNodes, Members: res.MemberNodes,
		ResponseTime: res.ResponseTime,
	})
}
