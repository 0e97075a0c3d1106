package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestChromePathFor(t *testing.T) {
	cases := map[string]string{
		"run.jsonl":    "run.jsonl.chrome.json",
		"run.jsonl.gz": "run.jsonl.chrome.json.gz",
		"x/y.jsonl.gz": "x/y.jsonl.chrome.json.gz",
	}
	for in, want := range cases {
		if got := ChromePathFor(in); got != want {
			t.Errorf("ChromePathFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGzipJSONLRoundTrip(t *testing.T) {
	j, _, _ := cleanJournal(t)
	j.Events = append([]Event{{Kind: KindPhaseStart, Phase: "p", At: 0}}, j.Events...)
	j.Events = append(j.Events, Event{Kind: KindPhaseEnd, Phase: "p", At: 1})

	dir := t.TempDir()
	for _, name := range []string{"run.jsonl", "run.jsonl.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, func(w io.Writer) error { return WriteJSONL(w, j) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gzipped := len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b
		if want := name == "run.jsonl.gz"; gzipped != want {
			t.Fatalf("%s: gzip magic = %v, want %v", name, gzipped, want)
		}
		var r io.Reader = bytes.NewReader(raw)
		if gzipped {
			if r, err = gzip.NewReader(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		back, err := ReadJSONL(r)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if len(back.Events) != len(j.Events) {
			t.Fatalf("%s: %d events back, want %d", name, len(back.Events), len(j.Events))
		}
		if !reflect.DeepEqual(back.Events, j.Events) {
			t.Fatalf("%s: journal did not round-trip", name)
		}
	}
}

func TestGzipChromeExport(t *testing.T) {
	j, _, _ := cleanJournal(t)
	path := filepath.Join(t.TempDir(), "run.chrome.json.gz")
	if err := WriteFile(path, func(w io.Writer) error { return WriteChrome(w, j) }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("not gzipped: %v", err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(gz).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("empty chrome trace after gunzip")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"ev":"no-such-kind","at":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("non-JSON line accepted")
	}
}
