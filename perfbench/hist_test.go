package main

import (
	"math"
	"testing"
)

func TestLatHistQuantileWithinBucket(t *testing.T) {
	var h latHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 37) // 37 ns .. 3.7 ms
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		want := 37 * (1 + q*99999)
		if got := h.quantile(q); math.Abs(got-want) > want/128+1 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1/128", q, got, want)
		}
	}
	var empty latHist
	if empty.quantile(0.5) != 0 {
		t.Error("an empty histogram has no quantile")
	}
}
