package main

import "math/bits"

// latHist is a log-linear histogram of round trips in ns: values below
// 128 exactly, above that 128 buckets per power of two, so a quantile
// is within 0.8 % of a sample. Its size is fixed, so the benchmark's
// own memory does not grow with the number of requests.
type latHist struct {
	n uint64
	c [40 * 128]uint32
}

func histBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 128 {
		return int(v)
	}
	shift := bits.Len64(v) - 8
	return min((shift+1)*128+int(v>>shift)-128, len(latHist{}.c)-1)
}

// histBounds is bucket i's lowest value and width.
func histBounds(i int) (low, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	shift := i/128 - 1
	return float64(uint64(i%128+128) << shift), float64(uint64(1) << shift)
}

func (h *latHist) add(ns int64) {
	h.c[histBucket(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, n := range o.c {
		h.c[i] += n
	}
	h.n += o.n
}

// quantile is the q-quantile in ns, interpolated by rank within its
// bucket; 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, n := range h.c {
		if seen+uint64(n) > rank {
			low, width := histBounds(i)
			return low + width*(float64(rank-seen)+0.5)/float64(n)
		}
		seen += uint64(n)
	}
	low, width := histBounds(len(h.c) - 1)
	return low + width
}
