package gen

import (
	"testing"

	"repro/internal/parallel"
)

// TestOwnsExactlyOneOwner pins the single ownership rule: for every shard
// count N, every unit of a work list has exactly one owning shard — whether
// the list is shorter than, as long as, or longer than the peer set — and a
// verification partition (parallel.SplitRange into at most N slices) gives
// slice j to shard j.
func TestOwnsExactlyOneOwner(t *testing.T) {
	for _, N := range []int{1, 2, 3} {
		for _, n := range []int{N - 1, N, N + 1, 2*N + 1} {
			for j := 0; j < n; j++ {
				var owners []int
				for k := 0; k < N; k++ {
					if (Shard{K: k, N: N}).Owns(j) {
						owners = append(owners, k)
					}
				}
				if len(owners) != 1 {
					t.Errorf("N=%d n=%d: unit %d owned by shards %v, want exactly one", N, n, j, owners)
				}
			}
			slices := parallel.SplitRange(uint64(n), N)
			if len(slices) > N {
				t.Fatalf("N=%d n=%d: SplitRange returned %d slices", N, n, len(slices))
			}
			for j := range slices {
				if !(Shard{K: j, N: N}).Owns(j) {
					t.Errorf("N=%d n=%d: slice %d not owned by shard %d", N, n, j, j)
				}
			}
		}
	}
}
