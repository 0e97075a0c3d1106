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

// WriteFile creates path and streams write into it, through gzip when
// the path ends in ".gz" (run.jsonl.gz, run.chrome.json.gz): paper-scale
// journals run to millions of events, and JSONL compresses about 10:1.
func WriteFile(path string, write func(io.Writer) error) error {
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
	if err := write(w); err != nil {
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
