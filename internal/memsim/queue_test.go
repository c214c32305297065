package memsim

import (
	"fmt"
	"testing"

	"repro/internal/dram"
)

// queueListErr walks every bucket and arrival list of every queue of m
// and reports the first broken invariant: a back link that does not
// mirror its forward link, a tail that is not the last request, a list
// out of order (buckets and starving by seq, future and aging by
// (Arrive, seq)), a request in the wrong bank's bucket, on the wrong
// one of aging and starving, or on the free list, a live-bank bit that
// disagrees with its bucket, or a list length that disagrees with
// readyN or the queue's len().
func queueListErr(m *Memory) error {
	free := make(map[*Request]bool, len(m.sh.free))
	for _, r := range m.sh.free {
		free[r] = true
	}
	byArrival := func(p, r *Request) bool { return p.Arrive < r.Arrive || p.Arrive == r.Arrive && p.seq < r.seq }
	bySeq := func(p, r *Request) bool { return p.seq < r.seq }
	walk := func(l *arrivalList, before func(p, r *Request) bool, starving bool) (int, error) {
		n := 0
		var prev *Request
		for r := l.head; r != nil; prev, r = r, r.anext {
			switch {
			case r.aprev != prev:
				return n, fmt.Errorf("back link of request seq %d does not point at its predecessor", r.seq)
			case prev != nil && !before(prev, r):
				return n, fmt.Errorf("request seq %d listed after seq %d out of order", r.seq, prev.seq)
			case free[r]:
				return n, fmt.Errorf("request seq %d is on the free list", r.seq)
			case r.starving != starving:
				return n, fmt.Errorf("request seq %d has starving=%v on the wrong list", r.seq, r.starving)
			}
			n++
		}
		if l.tail != prev {
			return n, fmt.Errorf("tail is not the last request")
		}
		if n != l.n {
			return n, fmt.Errorf("list holds %d requests, counts %d", n, l.n)
		}
		return n, nil
	}
	for ci, c := range m.channels {
		for name, q := range map[string]*reqQueue{"mitig": &c.mitigQ, "read": &c.readQ, "meta": &c.metaQ, "write": &c.writeQ} {
			where := fmt.Sprintf("channel %d %s queue", ci, name)
			ready := 0
			for b := range q.buckets {
				bk := &q.buckets[b]
				var prev *Request
				for r := bk.head; r != nil; prev, r = r, r.bnext {
					switch {
					case r.bprev != prev:
						return fmt.Errorf("%s bank %d: back link of seq %d does not point at its predecessor", where, b, r.seq)
					case prev != nil && prev.seq >= r.seq:
						return fmt.Errorf("%s bank %d: seq %d listed after seq %d", where, b, r.seq, prev.seq)
					case int(r.bank) != b:
						return fmt.Errorf("%s bank %d: holds a request for bank %d", where, b, r.bank)
					case free[r]:
						return fmt.Errorf("%s bank %d: request seq %d is on the free list", where, b, r.seq)
					}
					ready++
				}
				if bk.tail != prev {
					return fmt.Errorf("%s bank %d: tail is not the last request", where, b)
				}
				if live := q.live[b>>6]&(1<<(b&63)) != 0; live != (bk.head != nil) {
					return fmt.Errorf("%s bank %d: live bit %v for a bucket with head %v", where, b, live, bk.head != nil)
				}
			}
			if ready != q.readyN {
				return fmt.Errorf("%s: buckets hold %d requests, readyN is %d", where, ready, q.readyN)
			}
			future, err := walk(&q.future, byArrival, false)
			if err != nil {
				return fmt.Errorf("%s future list: %v", where, err)
			}
			if future+ready != q.len() {
				return fmt.Errorf("%s: lists hold %d requests, len() is %d", where, future+ready, q.len())
			}
			aging, err := walk(&q.aging, byArrival, false)
			if err != nil {
				return fmt.Errorf("%s aging list: %v", where, err)
			}
			starving, err := walk(&q.starving, bySeq, true)
			if err != nil {
				return fmt.Errorf("%s starving list: %v", where, err)
			}
			want := 0 // the mitigation queue keeps no starvation lists
			if q.starve {
				want = ready
			}
			if aging+starving != want {
				return fmt.Errorf("%s: aging and starving hold %d requests, want %d", where, aging+starving, want)
			}
		}
	}
	return nil
}

// TestQueueingAllocatesNothingPerRequest measures New plus queueing and
// serving n caller-owned requests of all five kinds on both channels,
// half of them arriving out of order: back-dated, or dated later than
// the requests submitted after them. The queues thread through the
// requests themselves, so the count must equal that of New alone; the
// arrival rings, heaps and bank-bucket slices they replaced grew with
// n.
func TestQueueingAllocatesNothingPerRequest(t *testing.T) {
	mem := dram.Baseline()
	cfg := DefaultConfig(mem)
	kinds := []Kind{ReadReq, WriteReq, MetaRead, MetaWrite, MitigAct}
	skew := []int64{0, 0, 300, -200, 0, 40}
	reqs := make([]Request, 1024)
	run := func(n int) float64 {
		var m *Memory
		allocs := testing.AllocsPerRun(5, func() {
			m = New(cfg)
			for i := range reqs[:n] {
				r := &reqs[i]
				*r = Request{
					Line:   lineAt(mem, i%2, i%16, 10+i%7, i%4),
					Kind:   kinds[i%len(kinds)],
					Arrive: max(0, 20*int64(i)+skew[i%len(skew)]),
				}
				for !m.Submit(r) {
					m.RunEpoch(Infinity)
				}
			}
			for m.RunEpoch(Infinity) != Infinity {
			}
		})
		if s := m.Stats(); s.Reads+s.Writes+s.MetaReads+s.MetaWrites+s.MitigActs != int64(n) {
			t.Fatalf("served %+v, want %d requests", s, n)
		}
		return allocs
	}
	base := run(0)
	for _, n := range []int{64, 1024} {
		if got := run(n); got != base {
			t.Errorf("New plus %d requests: %.0f allocations, want %.0f (New alone)", n, got, base)
		}
	}
}
