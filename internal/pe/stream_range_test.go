package pe

import (
	"fmt"
	"testing"
)

// TestStreamRangeMatchesSuffix: Stream over a PE range delivers absolute
// PE indices and exactly the sub-sequence a full run would deliver for
// those PEs, for every split point and several worker counts.
func TestStreamRangeMatchesSuffix(t *testing.T) {
	const P = 7
	produce := func(pe int, emit func(string)) {
		for i := 0; i < pe%4+1; i++ {
			emit(fmt.Sprintf("pe%d-item%d", pe, i))
		}
	}
	collect := func(first, count, workers int) []string {
		var got []string
		err := Stream(first, count, workers, 2, emitting(produce),
			func(pe int, batch []string, final bool) error {
				for _, s := range batch {
					if want := fmt.Sprintf("pe%d-", pe); len(s) < len(want) || s[:len(want)] != want {
						t.Fatalf("item %q delivered under PE %d", s, pe)
					}
				}
				got = append(got, batch...)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	full := collect(0, P, 3)
	for first := 0; first <= P; first++ {
		for _, workers := range []int{1, 3} {
			head := collect(0, first, workers)
			tail := collect(first, P-first, workers)
			if len(head)+len(tail) != len(full) {
				t.Fatalf("split %d/w%d: %d+%d items, want %d", first, workers, len(head), len(tail), len(full))
			}
			for i := range full {
				var got string
				if i < len(head) {
					got = head[i]
				} else {
					got = tail[i-len(head)]
				}
				if got != full[i] {
					t.Fatalf("split %d/w%d: item %d = %q, want %q", first, workers, i, got, full[i])
				}
			}
		}
	}
}
