package serve

import (
	"fmt"
	"testing"
)

// TestReservoirNearestRank pins the nearest-rank definition: the
// q-quantile of n samples is the sample at rank ceil(q*n). Samples are
// 1..n, added in reverse so sorting is exercised, so the expected value
// is the rank itself; ranks are computed in integer percent arithmetic,
// free of the float rounding the reservoir has to guard against.
func TestReservoirNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 11, 20, 61, 100} {
		r := newReservoir(128, 1)
		for v := n; v >= 1; v-- {
			r.add(float64(v))
		}
		pcts := []int{50, 95, 99}
		qs := make([]float64, len(pcts))
		for i, p := range pcts {
			qs[i] = float64(p) / 100
		}
		got, seen := r.quantiles(qs)
		if seen != int64(n) {
			t.Fatalf("n=%d: seen %d", n, seen)
		}
		for i, p := range pcts {
			want := (p*n + 99) / 100 // ceil(p*n/100)
			t.Run(fmt.Sprintf("n=%d/q=%g", n, qs[i]), func(t *testing.T) {
				if got[i] != float64(want) {
					t.Errorf("quantile %g of 1..%d = %g, want %d", qs[i], n, got[i], want)
				}
			})
		}
	}
}
