package query_test

import (
	"testing"

	"sensjoin/internal/query"
	"sensjoin/internal/workload"
)

// FuzzParse: the parser is a trust boundary (sensjoind parses whatever
// a client sends), so no input may panic it, nor Analyze or Fingerprint
// on whatever it accepts; and a parsed WHERE prints to text that parses
// back to the same canonical predicate.
func FuzzParse(f *testing.F) {
	presets := []workload.Preset{workload.Ratio33(), workload.Ratio60()}
	presets = append(presets, workload.RatioSweep3JA()...)
	presets = append(presets, workload.RatioSweep1JA()...)
	for _, p := range presets {
		f.Add(p.Build(3.918954062144055))
	}
	f.Add(workload.CountQuery(0.5))
	f.Add(`SELECT A.temp, COUNT(B.temp) FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 3 OR NOT |A.hum - B.hum| <= sqrt(2)
		GROUP BY A.temp ORDER BY 1 DESC, 2 LIMIT 10 SAMPLE PERIOD 30`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		query.Analyze(q)
		query.Fingerprint(q)
		if q.Where == nil {
			return
		}
		text := q.Where.String()
		again, err := query.ParsePredicate(text)
		if err != nil {
			t.Fatalf("%q: WHERE prints as %q, which does not parse: %v", src, text, err)
		}
		if got, want := query.Canonical(again).String(), query.Canonical(q.Where).String(); got != want {
			t.Fatalf("%q: WHERE %q re-parses to canonical %q, want %q", src, text, got, want)
		}
	})
}
