package memsim

// This file holds the incrementally maintained per-queue index that
// replaced the original scheduler's per-step linear scans. Every
// per-event operation on it is amortized O(1) and allocation-free once
// its buffers are warm. Each scheduling class (mitigation, read,
// metadata, write) keeps:
//
//   - future: an arrival index (below) of not-yet-arrived requests, so
//     the channel's next-arrival time is the index minimum instead of a
//     scan over every queued request;
//   - buckets: the arrived requests grouped per bank in submission
//     (seq) order, so FR-FCFS considers one candidate per bank — the
//     cached oldest row-hit, or the bucket front for a row conflict —
//     instead of estimating every request;
//   - live: one bit per bank whose bucket holds a live request, so the
//     pickers visit only non-empty buckets, in ascending bank order
//     (the order their tie-breaks were written against);
//   - aging/starving: an arrival index of arrived requests pending the
//     age bound, feeding a lazy-deleted heap by seq that surfaces the
//     oldest-submitted request past starvationAge exactly, without
//     depending on slice order.
//
// The arrival index is a FIFO in Arrive order plus a small side heap.
// Nearly every request is indexed with an Arrive no earlier than the
// newest entry's, so it appends to the FIFO; the rest (metadata and
// mitigations submitted at a past activation time, throttled demand
// dated into the future) go to the side heap. Both parts drain up to a
// bound — Arrive <= now to promote, Arrive < now-starvationAge to age —
// and the order in which one drain releases its entries cannot matter:
// buckets re-sort by seq on push, and the starving heap orders by seq.
//
// Requests are removed by tombstoning their bucket slot (Request.qpos
// is the slot index, kept stable until compaction), which replaces the
// old O(n) memmove removal. Aging and starving entries carry the seq
// the request had when the entry was pushed; a served request has its
// seq reset to -1, so stale entries are detected and discarded when
// they surface.

import "math/bits"

// heapEnt is one entry of a request index. key is the ordering key
// (Arrive or seq); stamp is the request's seq at push time, compared
// against the live seq to detect served requests.
type heapEnt struct {
	r     *Request
	key   int64
	stamp int64
}

// entHeap is a binary min-heap by (key, stamp). The stamp tie-break
// makes pops deterministic. The heap is hand-rolled (rather than
// container/heap) so pushes and pops stay free of interface
// conversions and allocations on the scheduler hot path.
type entHeap []heapEnt

func entLess(a, b heapEnt) bool {
	return a.key < b.key || (a.key == b.key && a.stamp < b.stamp)
}

func (h *entHeap) push(e heapEnt) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *entHeap) pop() heapEnt {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = heapEnt{} // release the request pointer
	*h = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && entLess(s[r], s[l]) {
			l = r
		}
		if !entLess(s[l], s[i]) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	return top
}

// arrivalIndex orders requests by Arrive (the entry key): a ring-buffer
// FIFO whose keys never decrease from head to tail, plus a side heap
// for entries that would break that order.
type arrivalIndex struct {
	ring []heapEnt // power-of-two capacity; n live entries from head
	head int
	n    int
	side entHeap
}

func (a *arrivalIndex) len() int { return a.n + len(a.side) }

func (a *arrivalIndex) push(e heapEnt) {
	mask := len(a.ring) - 1
	if a.n > 0 && e.key < a.ring[(a.head+a.n-1)&mask].key {
		a.side.push(e)
		return
	}
	if a.n == len(a.ring) {
		a.grow()
		mask = len(a.ring) - 1
	}
	a.ring[(a.head+a.n)&mask] = e
	a.n++
}

func (a *arrivalIndex) grow() {
	ring := make([]heapEnt, max(16, 2*len(a.ring)))
	for i := 0; i < a.n; i++ {
		ring[i] = a.ring[(a.head+i)&(len(a.ring)-1)]
	}
	a.ring, a.head = ring, 0
}

// min returns the smallest key, or Infinity when empty.
func (a *arrivalIndex) min() int64 {
	t := Infinity
	if a.n > 0 {
		t = a.ring[a.head].key
	}
	if len(a.side) > 0 && a.side[0].key < t {
		t = a.side[0].key
	}
	return t
}

// popUpTo removes and returns an entry with key <= bound, or reports
// false when none is left. The two parts merge in (key, stamp) order,
// which keeps a drain feeding another index appending to its FIFO.
func (a *arrivalIndex) popUpTo(bound int64) (heapEnt, bool) {
	ring := a.n > 0 && a.ring[a.head].key <= bound
	if len(a.side) > 0 && a.side[0].key <= bound && (!ring || entLess(a.side[0], a.ring[a.head])) {
		return a.side.pop(), true
	}
	if !ring {
		return heapEnt{}, false
	}
	e := a.ring[a.head]
	a.ring[a.head] = heapEnt{} // release the request pointer
	a.head = (a.head + 1) & (len(a.ring) - 1)
	a.n--
	return e, true
}

// bucket holds the arrived requests of one (queue, bank) pair in
// submission (seq) order. Serving a request nils its slot; front skips
// the dead prefix lazily and the slice compacts once it is mostly dead
// or would otherwise grow, so both the FIFO head and arbitrary middle
// removals are O(1) amortized and the slice stays within a small
// multiple of the live count. Inserts are appends except when arrival
// timestamps run backward (out-of-order submitters such as the
// throttle policy's future-dated rate limiting): the future index
// promotes by Arrive, so a late-submitted-but-early-arriving request
// can reach the bucket before an older one, and the older request is
// then bubbled into seq position — the ordering FR-FCFS and FCFS
// tie-breaks rely on.
type bucket struct {
	items []*Request
	head  int // first possibly-live index; items[:head] are all nil
	live  int

	// bestHit caches the oldest request targeting the bank's open row
	// (nil when cached as "no hit"). It is invalidated when the bank's
	// open row changes or the cached request is served.
	bestHit  *Request
	hitValid bool
}

func (b *bucket) push(r *Request, openRow int) {
	// Trim the dead suffix first so the append lands directly after
	// the last live request. Amortized O(1) — every trimmed slot was
	// appended exactly once — and it keeps the serve-newest-then-push
	// cycle from walking an ever-growing nil tail.
	for n := len(b.items); n > b.head && b.items[n-1] == nil; n-- {
		b.items = b.items[:n-1]
	}
	// Compact a full slice that is at most half live instead of letting
	// append grow it: the dead prefix items[:head] is otherwise
	// reclaimed only when the bucket empties, so a bank that never
	// drains would append to an ever-longer slice. Each compaction
	// frees at least half the slots, so this stays amortized O(1).
	if len(b.items) == cap(b.items) && 2*b.live <= len(b.items) {
		b.compact()
	}
	i := len(b.items)
	r.qpos = int32(i)
	b.items = append(b.items, r)
	b.live++
	// Bubble past any live request with a greater seq (and the dead
	// slots between), restoring seq order after an out-of-order
	// promotion. For monotonic traffic the loop breaks immediately on
	// the preceding live request.
	for i > b.head {
		p := b.items[i-1]
		if p != nil && p.seq < r.seq {
			break
		}
		b.items[i-1], b.items[i] = r, p
		if p != nil {
			p.qpos = int32(i)
		}
		r.qpos = int32(i - 1)
		i--
	}
	// Maintain the cached best hit: a new request upgrades a cached
	// "no hit", and an out-of-order one can be older than the cached
	// hit itself.
	if b.hitValid && r.loc.Row == openRow &&
		(b.bestHit == nil || r.seq < b.bestHit.seq) {
		b.bestHit = r
	}
}

func (b *bucket) remove(r *Request) {
	b.items[r.qpos] = nil
	b.live--
	if b.bestHit == r {
		b.invalidateHit()
	}
	if dead := len(b.items) - b.head - b.live; dead >= 32 && dead > 3*b.live {
		b.compact()
	}
}

func (b *bucket) invalidateHit() {
	b.bestHit = nil
	b.hitValid = false
}

// front returns the oldest live request, or nil for an empty bucket.
func (b *bucket) front() *Request {
	for b.head < len(b.items) && b.items[b.head] == nil {
		b.head++
	}
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
		return nil
	}
	return b.items[b.head]
}

// bestHitFor returns the oldest live request whose row matches
// openRow, caching the answer until the open row changes.
func (b *bucket) bestHitFor(openRow int) *Request {
	if !b.hitValid {
		b.bestHit = nil
		if openRow >= 0 {
			for i := b.head; i < len(b.items); i++ {
				if r := b.items[i]; r != nil && r.loc.Row == openRow {
					b.bestHit = r
					break
				}
			}
		}
		b.hitValid = true
	}
	return b.bestHit
}

// compact rewrites the live requests to the front of the slice,
// updating their qpos. Request pointers are stable, so cached bestHit
// entries survive.
func (b *bucket) compact() {
	w := 0
	for i := b.head; i < len(b.items); i++ {
		if r := b.items[i]; r != nil {
			b.items[w] = r
			r.qpos = int32(w)
			w++
		}
	}
	for i := w; i < len(b.items); i++ {
		b.items[i] = nil
	}
	b.items = b.items[:w]
	b.head = 0
}

// reqQueue is one scheduling class of a channel.
type reqQueue struct {
	future  arrivalIndex // Arrive > channel clock
	buckets []bucket     // arrived requests, per bank
	live    []uint64     // bit b set while buckets[b] holds a live request
	readyN  int          // total live requests across buckets

	// starve enables the starvation index (FR-FCFS queues only; the
	// mitigation queue is served strictly oldest-first already).
	starve   bool
	aging    arrivalIndex // arrived requests, pending the age bound
	starving entHeap      // requests past starvationAge, by seq
}

func (q *reqQueue) init(nBanks int, starve bool) {
	q.buckets = make([]bucket, nBanks)
	q.live = make([]uint64, (nBanks+63)/64)
	q.starve = starve
}

// len counts every queued request, arrived or not (queue-capacity and
// drain-hysteresis checks use the total, as the linear queues did).
func (q *reqQueue) len() int { return q.future.len() + q.readyN }

// add accepts a freshly submitted request. now is the channel clock:
// requests arriving in the past or present index as ready immediately.
func (q *reqQueue) add(r *Request, bank, openRow int, now int64) {
	if r.Arrive > now {
		q.future.push(heapEnt{r, r.Arrive, r.seq})
		return
	}
	q.insertReady(r, bank, openRow)
}

func (q *reqQueue) insertReady(r *Request, bank, openRow int) {
	q.buckets[bank].push(r, openRow)
	q.live[bank>>6] |= 1 << (bank & 63)
	q.readyN++
	if q.starve {
		q.aging.push(heapEnt{r, r.Arrive, r.seq})
	}
}

// remove takes a picked request out of its bucket and stamps it
// served, which lazily deletes any aging/starving entries. A pooled
// request recycles once served (pool.go) and may resubmit, at a later
// barrier, to a different channel while this channel's indexes still
// hold the old pointer; seqs are global and never reused, so the
// recycled request can never equal a stale entry's stamp.
func (q *reqQueue) remove(r *Request, bank int) {
	bk := &q.buckets[bank]
	bk.remove(r)
	if bk.live == 0 {
		q.live[bank>>6] &^= 1 << (bank & 63)
	}
	q.readyN--
	r.seq = -1
}

// earliestFuture returns the arrival time of the next not-yet-arrived
// request, or Infinity.
func (q *reqQueue) earliestFuture() int64 { return q.future.min() }

// oldestReady returns the lowest-seq arrived request (the mitigation
// queue's FCFS order), or nil.
func (q *reqQueue) oldestReady() *Request {
	if q.readyN == 0 {
		return nil
	}
	var best *Request
	for w, word := range q.live {
		for ; word != 0; word &= word - 1 {
			r := q.buckets[w<<6+bits.TrailingZeros64(word)].front()
			if best == nil || r.seq < best.seq {
				best = r
			}
		}
	}
	return best
}

// starvingPick returns the lowest-seq arrived request whose age
// exceeds starvationAge, or nil. Requests migrate from the aging index
// (keyed by Arrive) into the starving heap (keyed by seq) as the
// threshold passes them; served requests are discarded lazily by the
// stamp check.
func (q *reqQueue) starvingPick(now int64) *Request {
	th := now - starvationAge
	for {
		e, ok := q.aging.popUpTo(th - 1)
		if !ok {
			break
		}
		if e.r.seq == e.stamp {
			q.starving.push(heapEnt{e.r, e.stamp, e.stamp})
		}
	}
	for len(q.starving) > 0 {
		if e := q.starving[0]; e.r.seq == e.stamp {
			return e.r
		}
		q.starving.pop()
	}
	return nil
}
