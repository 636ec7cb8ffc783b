package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// series is a registered metric as the exposition sees it: it writes its
// own sample lines for name, with labels ("" or `k="v"`) inside the braces
// of each.
type series interface {
	expose(w *bytes.Buffer, name, labels string)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per metric,
// metrics sorted by name, labeled series sorted by label value, histograms
// as cumulative _bucket{le="..."} series plus _sum and _count. The output is
// fully deterministic for a given registry state — the golden test pins it.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.by))
	for _, m := range r.by {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var b bytes.Buffer
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		m.impl.expose(&b, m.name, "")
	}
	_, err := w.Write(b.Bytes())
	return err
}

func (c *Counter) expose(w *bytes.Buffer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braces(labels), c.Value())
}

func (g *Gauge) expose(w *bytes.Buffer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braces(labels), formatFloat(g.Value()))
}

func (h *Histogram) expose(w *bytes.Buffer, name, labels string) {
	bucket := labels
	if bucket != "" {
		bucket += ","
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, bucket, le, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braces(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braces(labels), h.Count())
}

// expose writes each label value's series, sorted by value.
func (v *Vec[M]) expose(w *bytes.Buffer, name, _ string) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	values := make([]string, 0, len(v.by))
	for value := range v.by {
		values = append(values, value)
	}
	sort.Strings(values)
	for _, value := range values {
		v.by[value].expose(w, name, v.label+"="+strconv.Quote(value))
	}
}

// braces wraps a non-empty label list in the exposition's braces.
func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
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
