package main

import (
	"bytes"
	"testing"
)

// Every view succeeds and prints the same bytes on a second run.
func TestViewsAreDeterministic(t *testing.T) {
	for _, view := range []string{"", "-dot", "-loads", "-timeline", "-heatmap"} {
		args := []string{"-nodes", "150"}
		if view != "" {
			args = append(args, view)
		}
		var first []byte
		for i := 0; i < 2; i++ {
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 0 || out.Len() == 0 {
				t.Fatalf("%v: exit %d, %d bytes out: %s", args, code, out.Len(), errOut.String())
			}
			if i == 1 && !bytes.Equal(out.Bytes(), first) {
				t.Errorf("%v: two runs printed different bytes", args)
			}
			first = out.Bytes()
		}
	}
}

// A stray argument or an unknown flag is a usage error: exit 2, nothing
// printed on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-nodes", "150", "dot"}, {"-no-such-view"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
