//go:build linux

package benchmark

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of values; 0 when empty. values is not modified.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default exclusive method)
// does — the rule the acceptance check applies to a result set. It
// needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n // after clamping, as Python computes it
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs((q3 - q1) / med)
}

// windowRates cuts a phase of the given length into whole windows of
// about one second (at least one) and returns each window's rate: the
// summed weight of the events that fell into it, per second. at[i] is
// event i's offset from the start of the phase.
func windowRates(at []time.Duration, weight []float64, length time.Duration) []float64 {
	n := max(int(length/time.Second), 1)
	width := length / time.Duration(n)
	sums := make([]float64, n)
	for i, t := range at {
		if w := int(t / width); t >= 0 && w < n {
			sums[w] += weight[i]
		}
	}
	for w := range sums {
		sums[w] /= width.Seconds()
	}
	return sums
}

// fastestQuarter is the mean of the highest quarter of rates (of at
// least one of them): the rate the system sustained in the windows the
// host left it alone. Interference from a shared host only ever slows a
// window down, so the fast windows repeat where the mean over all of
// them follows whatever else the host was doing.
func fastestQuarter(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	top := s[len(s)-max(len(s)/4, 1):]
	sum := 0.0
	for _, r := range top {
		sum += r
	}
	return sum / float64(len(top))
}

// lateness is how late the generator itself ran: how long after a
// file was ready — due, and a connection free to carry it — its send
// began. Waiting for a busy connection is the system's doing and is
// charged to the latency metrics (timed from due), not to the
// generator.
func lateness(ready, started time.Time) time.Duration {
	if d := started.Sub(ready); d > 0 {
		return d
	}
	return 0
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
