package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A throwaway module with a root package, one internal and one pkg/
// package: check must pass what has a caller, what an Example of its own
// package names, what an interface needs and what the allowlist explains,
// and name everything else — in both directions of the allowlist.
func TestCheck(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"cmd/tool/main.go": `package main

import "example/internal/a"

func main() {
	a.Used()
	a.T{}.Called()
	o := a.Options{Set: 1}
	_ = o.Read
}
`,
		"internal/a/a.go": `package a

import "fmt"

func Used()        {}
func Dead()        {}
func Fixture()     {}
func Recursive()   { Recursive() }
func GainedCaller() {}

type T struct{}

func (T) Called()        { GainedCaller() }
func (T) Uncalled()      {}
func (T) String() string { return fmt.Sprint(1) } // fmt.Stringer

type E struct{ err error }

// Options has a field set by a keyed literal, one only read, one only
// tests turn, one nothing names, and an embedded one.
type Options struct {
	T
	Set, Read int
	TestKnob  bool
	Unnamed   bool
}

func (e E) Error() string { return "e" }
func (e E) Unwrap() error { return e.err } // found by errors.Is

func FromBenchmark() {}
func Forgotten()     {}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestFixture(t *testing.T) { Fixture(); GainedCaller(); _ = Options{TestKnob: true} }
`,
		"root.go": `package example

func OnlyExample() {}
func OnlyTest()    {}
`,
		"root_test.go": `package example_test

import (
	"testing"

	"example"
)

func TestOnlyTest(t *testing.T) { example.OnlyTest() }

// Dead is a use of internal/a.Dead by name in an Example of another
// package, which does not count.
func Dead() {}

func ExampleOnlyExample() {
	example.OnlyExample()
	Dead()
}
`,
		"pkg/p/p.go": `package p

func NoCaller() {}
`,
		"benchmark/main.go": `package main

import "example/internal/a"

func main() { a.FromBenchmark() }
`,
		allowFile: `# fixtures
internal/a.Fixture — fixture: tests build on it
internal/a.GainedCaller — observer: once only tests read it
internal/a.Options.TestKnob — fixture: a test turns it
internal/a.Forgotten — fixture: no test uses it any more
internal/a.Gone — fixture: deleted since
`,
	}
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a.Dead has no non-test use",
		"example.OnlyTest has no non-test use",
		"pkg/p.NoCaller has no non-test use",
		"internal/a.Recursive has no non-test use",
		"internal/a.T.Uncalled has no non-test use",
		"internal/a.Options.Unnamed has no non-test use",
		"internal/a.GainedCaller is listed in " + allowFile + " but has a non-test use",
		"internal/a.Forgotten is listed in " + allowFile + " but no test mentions it",
		"internal/a.Gone names nothing the check looks at",
	}
	for _, w := range want {
		found := false
		for _, line := range got {
			found = found || strings.Contains(line, w)
		}
		if !found {
			t.Errorf("no finding %q", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
}

// The repository itself obeys the rule.
func TestRepositoryIsClean(t *testing.T) {
	got, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("go run ./scripts/deadexports would fail:\n%s", strings.Join(got, "\n"))
	}
}
