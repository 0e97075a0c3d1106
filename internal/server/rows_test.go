package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/proto"
	"sensjoin/internal/tabledigest"
	"sensjoin/pkg/client"
)

// Division by a zero difference yields every value JSON could not
// carry: +Inf, NaN, -0, -Inf. Under protocol version 1 the first such
// cell failed the write loop's json.Marshal, which tore the session down
// and showed every query pipelined on the connection a bare EOF.
const nonFiniteQuery = `SELECT A.temp / (B.temp - B.temp), (B.temp - B.temp) / (B.temp - B.temp),
	(B.temp - B.temp) * -1, -A.temp / (B.temp - B.temp), A.temp
	FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6 ONCE`

func TestServerNonFiniteCellsBitExact(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Both queries are on the wire before either answer is read.
	special, err := c.Stream(nonFiniteQuery, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := c.Stream(testQueries[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := special.Next()
	if err != nil {
		t.Fatalf("non-finite query: %v", err)
	}
	sib, err := sibling.Next()
	if err != nil {
		t.Fatalf("sibling query on the same connection: %v", err)
	}
	if d := tabledigest.Diff(clientTable(sib), reference(t, testQueries[0], 0)); d != "" {
		t.Errorf("sibling table differs from direct execution: %s", d)
	}

	r, err := core.NewRunner(core.SetupConfig{Nodes: testNodes, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Run(nonFiniteQuery, core.NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := tabledigest.Diff(clientTable(tb), want.Table()); d != "" || len(want.Rows) == 0 {
		t.Fatalf("the table differs from direct execution (%d rows): %s", len(want.Rows), d)
	}
	seen := map[string]bool{}
	for i, row := range want.Rows {
		for j, x := range row {
			if math.Float64bits(tb.Rows[i][j]) != math.Float64bits(x) {
				t.Fatalf("row %d col %d: got bits %#x, want %#x (%v)", i, j, math.Float64bits(tb.Rows[i][j]), math.Float64bits(x), x)
			}
			switch {
			case math.IsNaN(x):
				seen["NaN"] = true
			case math.IsInf(x, 1):
				seen["+Inf"] = true
			case math.IsInf(x, -1):
				seen["-Inf"] = true
			case x == 0 && math.Signbit(x):
				seen["-0"] = true
			}
		}
	}
	if len(seen) != 4 {
		t.Errorf("the query was meant to produce NaN, +Inf, -Inf and -0; saw %v", seen)
	}
}

// A frame the codec cannot render costs its own query an exec error,
// not the session: the query after it on the same connection is served.
func TestServerEncodeFailureSparesSession(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := proto.WriteFrame(conn, proto.KindHello, proto.Hello{Version: proto.Version}); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := proto.ReadFrame(conn); err != nil || kind != proto.KindHelloOK {
		t.Fatalf("handshake: kind %d, err %v", kind, err)
	}
	s.mu.Lock()
	var ss *session
	for _, ss = range s.sessions {
	}
	s.mu.Unlock()

	// A ragged chunk has no Rows layout, so it cannot be encoded.
	if !ss.send(proto.KindRows, proto.RowsOf[core.Row]{ID: 7, Rows: []core.Row{{1, 2}, {3}}}) {
		t.Fatal("send refused")
	}
	kind, payload, err := proto.ReadFrame(conn)
	var e proto.Error
	if err != nil || kind != proto.KindError || proto.Decode(payload, &e) != nil || e.ID != 7 || e.Code != proto.CodeExec {
		t.Fatalf("got kind %d, %+v, err %v; want Error{ID: 7, Code: exec}", kind, e, err)
	}

	if err := proto.WriteFrame(conn, proto.KindQuery, proto.Query{ID: 8, Src: testQueries[0]}); err != nil {
		t.Fatal(err)
	}
	for {
		kind, _, err := proto.ReadFrame(conn)
		if err != nil {
			t.Fatalf("the session did not survive the encode failure: %v", err)
		}
		if kind == proto.KindDone {
			return
		}
	}
}

// refusedAtHello sends one Hello frame of the given payload and checks
// that the server answers with a session-level proto Error and closes
// the connection.
func refusedAtHello(t *testing.T, payload []byte) {
	t.Helper()
	s, _ := startTestServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	if _, err := conn.Write(append(append(frame, proto.KindHello), payload...)); err != nil {
		t.Fatal(err)
	}
	kind, reply, err := proto.ReadFrame(conn)
	var e proto.Error
	if err != nil || kind != proto.KindError || proto.Decode(reply, &e) != nil || e.ID != 0 || e.Code != proto.CodeProto {
		t.Fatalf("got kind %d, %+v, err %v; want a session-level Error{Code: proto}", kind, e, err)
	}
	if _, _, err := proto.ReadFrame(conn); err == nil {
		t.Error("the server kept the connection open after refusing the version")
	}
}

// A Hello that states version 1 (JSON Rows) is refused at the handshake.
func TestServerRefusesVersion1(t *testing.T) {
	var buf bytes.Buffer
	if err := proto.WriteFrame(&buf, proto.KindHello, proto.Hello{Version: 1}); err != nil {
		t.Fatal(err)
	}
	refusedAtHello(t, buf.Bytes()[5:])
}

// A version-2 client sends its Hello as JSON, which no version-3
// layout reads: it is refused at the handshake too, with no fallback.
func TestServerRefusesVersion2(t *testing.T) {
	refusedAtHello(t, []byte(`{"Version":2}`))
}
