package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// File-level export with optional gzip: paper-scale journals run to
// millions of events, and the JSONL form compresses roughly 10:1. A
// ".gz" path suffix (run.jsonl.gz, run.chrome.json.gz) selects
// compression; anything else writes plain text, so existing call sites
// keep their behaviour.

// ExportJSONL writes the journal as JSON Lines to path, gzipped when
// the path ends in ".gz".
func ExportJSONL(path string, j *Journal) error {
	return exportTo(path, j, WriteJSONL)
}

// ExportChrome writes the journal in Chrome trace_event format to path,
// gzipped when the path ends in ".gz".
func ExportChrome(path string, j *Journal) error {
	return exportTo(path, j, WriteChrome)
}

func exportTo(path string, j *Journal, write func(io.Writer, *Journal) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := write(w, j); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ChromePathFor derives the Chrome trace path written alongside a JSONL
// export: run.jsonl -> run.jsonl.chrome.json, and run.jsonl.gz ->
// run.jsonl.chrome.json.gz (compression carries over).
func ChromePathFor(path string) string {
	if strings.HasSuffix(path, ".gz") {
		return strings.TrimSuffix(path, ".gz") + ".chrome.json.gz"
	}
	return path + ".chrome.json"
}

// ReadJSONL parses a JSONL journal back into memory, the inverse of
// WriteJSONL.
func ReadJSONL(r io.Reader) (*Journal, error) {
	j := &Journal{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", lineNo, err)
		}
		k, ok := kindFromName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("jsonl line %d: unknown event kind %q", lineNo, je.Kind)
		}
		ev := je.Event
		ev.Kind = k
		j.Events = append(j.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return j, nil
}

// kindFromName inverts Kind.String.
func kindFromName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}
