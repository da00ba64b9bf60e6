package main

import (
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dfpr/internal/telemetry"
)

// tailLadder is the set of percentiles a _tail metric may report. The tail
// of n samples is the highest rung that leaves at least tailBeyond samples
// above it; the open-loop schedule fixes n per workload, so the rung is the
// same on every run of that workload.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// tailPercentile returns the highest ladder percentile with at least
// tailBeyond of n samples beyond it, or 50 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= tailBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// samples is a concurrency-safe sample set.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.v)
	slices.Sort(out)
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// summary is the median and tail of one sample set, with the sample count
// and the tail's percentile.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func summarize(s *samples) summary {
	v := s.sorted()
	tp := tailPercentile(len(v))
	return summary{N: len(v), P50: percentile(v, 50), Tail: percentile(v, tp), TailPct: tp}
}

// median returns the median of xs (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := slices.Clone(xs)
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// scrape parses an engine registry's current exposition.
func scrape(reg *telemetry.Registry) telemetry.Snapshot {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return telemetry.Snapshot{}
	}
	snap, err := telemetry.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		return telemetry.Snapshot{}
	}
	return snap
}

var leLabel = regexp.MustCompile(`le="([^"]*)"`)

// histBuckets returns the cumulative bucket counts of histogram name,
// summed over every series whose label signature contains all of match
// (each a `key="value"` fragment), keyed by upper bound.
func histBuckets(s telemetry.Snapshot, name string, match ...string) map[float64]float64 {
	out := map[float64]float64{}
	prefix := name + "_bucket{"
next:
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, m := range match {
			if !strings.Contains(k, m) {
				continue next
			}
		}
		sub := leLabel.FindStringSubmatch(k)
		if sub == nil {
			continue
		}
		le, err := strconv.ParseFloat(sub[1], 64)
		if err != nil {
			continue
		}
		out[le] += v
	}
	return out
}

// histDiff returns the per-bound cumulative counts a histogram gained
// between two scrapes.
func histDiff(before, after telemetry.Snapshot, name string, match ...string) map[float64]float64 {
	a := histBuckets(after, name, match...)
	b := histBuckets(before, name, match...)
	for le := range a {
		a[le] -= b[le]
	}
	return a
}

// addBuckets sums cumulative bucket maps with the same bounds.
func addBuckets(ms ...map[float64]float64) map[float64]float64 {
	out := map[float64]float64{}
	for _, m := range ms {
		for le, c := range m {
			out[le] += c
		}
	}
	return out
}

// bucketQuantile returns the q-quantile (0..1) of cumulative bucket counts,
// interpolating linearly within the bucket that holds it; 0 when empty.
func bucketQuantile(cum map[float64]float64, q float64) float64 {
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	slices.Sort(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	lo, prev := 0.0, 0.0
	for _, le := range bounds {
		if c := cum[le]; c >= target {
			if math.IsInf(le, 1) || c == prev {
				return lo
			}
			return lo + (target-prev)/(c-prev)*(le-lo)
		}
		lo, prev = le, cum[le]
	}
	return lo
}
