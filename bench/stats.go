package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so the spreads -repeat prints are the
// ones a reader computing them from the printed values would get.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// latencies is a sorted sample of operation durations.
type latencies []time.Duration

func sortedLatencies(ds []time.Duration) latencies {
	s := append(latencies(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median interpolates between the two middle samples of an even count.
func (l latencies) median() time.Duration {
	n := len(l)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return l[n/2]
	}
	return (l[n/2-1] + l[n/2]) / 2
}

// p99 is the nearest-rank 99th percentile. ok is false when fewer than
// ten samples lie beyond it, the point below which a p99 is noise.
func (l latencies) p99() (d time.Duration, ok bool) {
	if len(l) < 1000 {
		return 0, false
	}
	return l[int(math.Ceil(0.99*float64(len(l))))-1], true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// line is one printed metric. NA marks a metric the run could not
// measure (too few samples); it is printed, never put in the result.
type line struct {
	name, unit, note string
	value            float64
	na               bool
}

// report collects a run's metrics in print order.
type report struct{ lines []line }

func (r *report) add(name string, v float64, unit, note string) {
	r.lines = append(r.lines, line{name: name, value: v, unit: unit, note: note})
}

func (r *report) addNA(name, unit, note string) {
	r.lines = append(r.lines, line{name: name, unit: unit, note: note, na: true})
}

// timing adds a latency median and, where the sample supports one, its
// p99, both with the sample count.
func (r *report) timing(prefix string, l latencies, unit string, scale func(time.Duration) float64) {
	n := fmt.Sprintf("n=%d", len(l))
	if len(l) == 0 {
		r.addNA(prefix+"_p50_"+unit, unit, n)
	} else {
		r.add(prefix+"_p50_"+unit, scale(l.median()), unit, n)
	}
	if d, ok := l.p99(); ok {
		r.add(prefix+"_p99_"+unit, scale(d), unit, n)
	} else {
		r.addNA(prefix+"_p99_"+unit, unit, n+", fewer than 10 samples beyond p99")
	}
}

func (r *report) get(name string) (line, bool) {
	for _, l := range r.lines {
		if l.name == name && !l.na {
			return l, true
		}
	}
	return line{}, false
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		v := "n/a"
		if !l.na {
			v = fmt.Sprintf("%.6g", l.value)
		}
		fmt.Fprintf(w, "%-44s %14s %-6s %s\n", l.name, v, l.unit, l.note)
	}
}
