package memsim

import "testing"

// TestBucketCapacityStaysBounded keeps one bank busy: k live requests,
// then 100k pairs of a push and a removal of the oldest request, so the
// bucket never empties. Its slice must stay within a small multiple of
// the live count; it used to keep the dead prefix until the bucket
// emptied and grow to hold every request ever pushed.
func TestBucketCapacityStaysBounded(t *testing.T) {
	for _, k := range []int{1, 3, 40} {
		var b bucket
		var next, oldest int64
		push := func() {
			b.push(&Request{seq: next}, -1)
			next++
		}
		for i := 0; i < k; i++ {
			push()
		}
		for i := 0; i < 100000; i++ {
			push()
			r := b.front()
			if r.seq != oldest {
				t.Fatalf("k=%d, pair %d: front has seq %d, want %d", k, i, r.seq, oldest)
			}
			b.remove(r)
			oldest++
			if c := cap(b.items); c > 8*(k+1) {
				t.Fatalf("k=%d, pair %d: bucket capacity %d for %d live requests", k, i, c, b.live)
			}
		}
	}
}
