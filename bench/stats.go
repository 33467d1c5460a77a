package main

import (
	"bufio"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// samples collects the measured values of each metric by name; the
// reported value is their median.
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

// repeatFor calls rep until it returns false or `seconds` have passed,
// and at least once.
func repeatFor(seconds float64, rep func() bool) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if !rep() {
			return
		}
	}
}

// summary is how every timing is reported: the median, the quartiles
// around it and the number of samples they were taken from.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between order statistics; v need not be sorted. An empty
// v yields 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func summarize(v []float64) summary {
	return summary{Median: median(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), N: len(v)}
}

// spanStat is one span name's share of a trace.
type spanStat struct {
	Count int
	Total int64 // ns, sum of durations
	Self  int64 // ns, Total minus the time covered by child spans
}

// foldSpans folds a trace into count / total / self time per span name.
// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span itself — so children that overlap each
// other (concurrent chunk generation under one PE) are not subtracted
// twice. A span whose parent is not in the trace (dropped, or a root)
// is subtracted from nobody.
func foldSpans(events []obs.Event) map[string]spanStat {
	type interval struct{ lo, hi int64 }
	children := make(map[uint64][]interval, len(events))
	for _, e := range events {
		if e.Parent != 0 {
			children[e.Parent] = append(children[e.Parent], interval{e.Start, e.Start + e.Dur})
		}
	}
	out := make(map[string]spanStat)
	for _, e := range events {
		kids := children[e.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		lo, hi := e.Start, e.Start+e.Dur
		covered, cursor := int64(0), lo
		for _, k := range kids {
			a, b := max(k.lo, cursor), min(k.hi, hi)
			if b > a {
				covered += b - a
				cursor = b
			}
		}
		st := out[e.Name]
		st.Count++
		st.Total += e.Dur
		st.Self += e.Dur - covered
		out[e.Name] = st
	}
	return out
}

// parseProm reads Prometheus text exposition format into a map from the
// sample's full name (labels included, exactly as printed) to its value.
// Comment lines and lines that do not parse are skipped.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}
