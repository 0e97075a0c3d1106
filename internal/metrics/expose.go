package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4), deterministic:
// families sort by name, series by their canonical label key.

// escapeHelp escapes a HELP string per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatLabels renders {k="v",...} from sorted labels plus an optional
// extra pair (the histogram "le" label).
func formatLabels(labels []L, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes every registered series in the Prometheus text
// format. Output is deterministic for a given registry state. Safe on a
// nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type snap struct {
		fam   *family
		insts []*instrument
	}
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		insts := make([]*instrument, 0, len(f.insts))
		for _, inst := range f.insts {
			insts = append(insts, inst)
		}
		sort.Slice(insts, func(i, j int) bool { return insts[i].labelsKey < insts[j].labelsKey })
		snaps = append(snaps, snap{fam: f, insts: insts})
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, s := range snaps {
		f := s.fam
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, inst := range s.insts {
			switch f.typ {
			case "counter":
				fmt.Fprintf(bw, "%s%s %d\n", f.name, formatLabels(inst.labels, "", ""), inst.counter.Value())
			case "gauge":
				fmt.Fprintf(bw, "%s%s %d\n", f.name, formatLabels(inst.labels, "", ""), inst.gauge.Value())
			case "histogram":
				h := inst.hist
				cum := int64(0)
				for i, up := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, formatLabels(inst.labels, "le", formatFloat(up)), cum)
				}
				cum += h.inf.Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, formatLabels(inst.labels, "le", "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, formatLabels(inst.labels, "", ""), formatFloat(h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, formatLabels(inst.labels, "", ""), h.Count())
			}
		}
	}
	return bw.Flush()
}

// Snapshot returns a flat map of every series to its current value —
// histograms contribute _sum and _count entries. Safe on a nil registry
// (returns an empty map).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.families {
		for _, inst := range f.insts {
			series := name
			if inst.labelsKey != "" {
				series = name + "{" + inst.labelsKey + "}"
			}
			switch f.typ {
			case "counter":
				out[series] = inst.counter.Value()
			case "gauge":
				out[series] = inst.gauge.Value()
			case "histogram":
				out[series+"_count"] = inst.hist.Count()
				out[series+"_sum"] = inst.hist.Sum()
			}
		}
	}
	return out
}
