package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per metric,
// metrics sorted by name, labeled counters sorted by label value, histograms
// as cumulative _bucket{le="..."} series plus _sum and _count. The output is
// fully deterministic for a given registry state — the golden test pins it.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if err := writeMetricText(w, m); err != nil {
			return err
		}
	}
	return nil
}

func writeMetricText(w io.Writer, m MetricSnapshot) error {
	if m.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, escapeHelp(m.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
		return err
	}
	switch {
	case m.Hist != nil:
		var cum int64
		for i, c := range m.Hist.Counts {
			cum += c
			le := "+Inf"
			if i < len(m.Hist.Bounds) {
				le = formatFloat(m.Hist.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.Name, formatFloat(m.Hist.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", m.Name, m.Hist.Count)
		return err
	case m.Kind == kindHistogram && m.Label != "":
		for _, lh := range m.LabeledHists {
			var cum int64
			for i, c := range lh.Hist.Counts {
				cum += c
				le := "+Inf"
				if i < len(lh.Hist.Bounds) {
					le = formatFloat(lh.Hist.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", m.Name, m.Label, lh.Value, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", m.Name, m.Label, lh.Value, formatFloat(lh.Hist.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count{%s=%q} %d\n", m.Name, m.Label, lh.Value, lh.Hist.Count); err != nil {
				return err
			}
		}
		return nil
	case m.Kind == kindGauge && m.Label != "":
		for _, lg := range m.LabeledGauges {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", m.Name, m.Label, lg.Value, formatFloat(lg.Gauge)); err != nil {
				return err
			}
		}
		return nil
	case m.Label != "":
		for _, lv := range m.Labeled {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", m.Name, m.Label, lv.Value, lv.Count); err != nil {
				return err
			}
		}
		return nil
	default:
		_, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value))
		return err
	}
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// exact decimal, with the special spellings for infinities and NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp keeps HELP lines single-line per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry in the text exposition format — mount it on
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
