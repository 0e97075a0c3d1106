// Command promcheck fetches a Prometheus text exposition over HTTP,
// validates it with the in-repo validator (internal/metrics), and
// optionally requires specific metric families to be present. CI uses
// it to smoke-test `experiments -serve`.
//
// Usage:
//
//	promcheck [-retries 20] [-interval 250ms] [-require fam1,fam2] URL
//	promcheck -raw [-contains substr] URL
//
// Exit status 0 means the endpoint answered with a well-formed
// exposition containing every required family. Retries cover server
// start-up races: fetching goes on, within the -retries/-interval
// budget, until a fetch succeeds and holds every required family — a
// program registers its instruments as it reaches them, so an early
// fetch may lack some — and then the missing list is the error. An
// exposition that does not validate fails at once. -raw skips
// Prometheus validation and only requires HTTP 200 (plus an optional
// -contains substring) — CI uses it to poke /progress, /debug/pprof/
// and /quit without a curl dependency.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"sensjoin/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, checks the URL and returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("promcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	retries := fs.Int("retries", 20, "fetch attempts before giving up")
	interval := fs.Duration("interval", 250*time.Millisecond, "delay between fetch attempts")
	require := fs.String("require", "", "comma-separated metric family names that must be present")
	raw := fs.Bool("raw", false, "fetch only: require HTTP 200, skip Prometheus validation")
	contains := fs.String("contains", "", "with -raw: require this substring in the response body")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: promcheck [flags] URL")
		fs.PrintDefaults()
		return 2
	}
	url := fs.Arg(0)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "promcheck:", err)
		return 1
	}
	var required []string
	for _, fam := range strings.Split(*require, ",") {
		if fam = strings.TrimSpace(fam); fam != "" {
			required = append(required, fam)
		}
	}

	var fetchErr error
	var missing []string
	for attempt := 0; attempt < *retries; attempt++ {
		if attempt > 0 {
			time.Sleep(*interval)
		}
		body, err := get(url)
		if err != nil {
			fetchErr = err
			continue
		}
		if *raw {
			if *contains != "" && !strings.Contains(body, *contains) {
				return fail(fmt.Errorf("%s: body does not contain %q", url, *contains))
			}
			fmt.Fprintf(stdout, "promcheck: %s ok — %d bytes\n", url, len(body))
			return 0
		}
		families, err := metrics.ValidateProm(strings.NewReader(body))
		if err != nil {
			return fail(fmt.Errorf("%s: invalid exposition: %w", url, err))
		}
		missing = missing[:0]
		for _, fam := range required {
			if _, ok := families[fam]; !ok {
				missing = append(missing, fam)
			}
		}
		if len(missing) == 0 {
			fmt.Fprintf(stdout, "promcheck: %s ok — %d families valid\n", url, len(families))
			return 0
		}
	}
	if missing != nil {
		return fail(fmt.Errorf("%s: missing required families after %d attempts: %s", url, *retries, strings.Join(missing, ", ")))
	}
	return fail(fmt.Errorf("%s: no successful fetch after %d attempts: %w", url, *retries, fetchErr))
}

// get fetches url once and returns the body of an HTTP 200 answer.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return string(body), nil
}
