package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sensjoin/internal/server"
)

// runCLI is one invocation of the binary's run with captured streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

var header = regexp.MustCompile(`^epoch 0 \(t=0\): (\d+) row\(s\), \d+/\d+ contributing nodes, complete=true$`)

// A query prints its epoch header, the tab-separated columns and the
// first -rows rows, then says how many it left out; the trace ID it chose
// comes back on stderr.
func TestQueryPrintsTheTable(t *testing.T) {
	srv, err := server.Listen("127.0.0.1:0", server.Config{
		TraceSample: 1,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, stdout, stderr := runCLI("-addr", srv.Addr().String(), "-rows", "2", "-trace", "ctl-1",
		"SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "span-sampled as ctl-1") {
		t.Errorf("stderr does not report the trace ID:\n%s", stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header, columns, 2 rows and the rest, got:\n%s", stdout)
	}
	m := header.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "A.temp\tB.hum" {
		t.Errorf("columns %q", lines[1])
	}
	for _, row := range lines[2:4] {
		if cells := strings.Split(row, "\t"); len(cells) != 2 {
			t.Errorf("row %q has %d cells", row, len(cells))
		}
	}
	rows, _ := strconv.Atoi(m[1])
	if want := fmt.Sprintf("... (%d more rows)", rows-2); lines[4] != want {
		t.Errorf("last line %q, want %q", lines[4], want)
	}
}

// A refused address is a failure, a missing query a usage error.
func TestRunFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	if code, _, stderr := runCLI("-addr", refused, "SELECT A.temp FROM Sensors A ONCE"); code != 1 || !strings.HasPrefix(stderr, "sensjoinctl:") {
		t.Errorf("refused address: exit %d, stderr %q", code, stderr)
	}
	if code, stdout, _ := runCLI("-addr", refused); code != 2 || stdout != "" {
		t.Errorf("no query: exit %d, stdout %q", code, stdout)
	}
}
