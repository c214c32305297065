package memsim

// This file holds the per-queue index that replaced the original
// scheduler's per-step linear scans. Every index is an intrusive
// doubly-linked list threaded through the queued requests themselves,
// so queueing allocates nothing and serving a request unlinks it at
// once. Each scheduling class (mitigation, read, metadata, write)
// keeps:
//
//   - future: the not-yet-arrived requests in (Arrive, seq) order, so
//     the channel's next-arrival time is the list head instead of a
//     scan over every queued request;
//   - buckets: the arrived requests grouped per bank in submission
//     (seq) order, so FR-FCFS considers one candidate per bank — the
//     cached oldest row-hit, or the bucket front for a row conflict —
//     instead of estimating every request;
//   - live: one bit per bank whose bucket holds a request, so the
//     pickers visit only non-empty buckets, in ascending bank order
//     (the order their tie-breaks were written against);
//   - aging/starving: the arrived requests pending the age bound in
//     (Arrive, seq) order, and those past starvationAge in seq order,
//     so the oldest-submitted starving request is the starving head.
//
// A queued request sits in its bank bucket (once arrived) through its
// bucket links and in at most one of future, aging and starving through
// its arrival links. Inserts walk back from the tail: requests reach
// every list nearly in order, so the walk is short. Out-of-order
// inserts come from metadata and mitigations dated at a past
// activation, from cores submitting at their own fetch clocks, and
// from throttled demand dated into the future.

import "math/bits"

// arrivalList is a list through the requests' arrival links, ordered
// by (Arrive, seq) for future and aging, by seq for starving.
type arrivalList struct {
	head, tail *Request
	n          int
}

// insertAfter links r after p, or at the head when p is nil.
func (l *arrivalList) insertAfter(p, r *Request) {
	r.aprev = p
	if p == nil {
		r.anext = l.head
		l.head = r
	} else {
		r.anext = p.anext
		p.anext = r
	}
	if r.anext == nil {
		l.tail = r
	} else {
		r.anext.aprev = r
	}
	l.n++
}

func (l *arrivalList) unlink(r *Request) {
	if r.aprev == nil {
		l.head = r.anext
	} else {
		r.aprev.anext = r.anext
	}
	if r.anext == nil {
		l.tail = r.aprev
	} else {
		r.anext.aprev = r.aprev
	}
	r.aprev, r.anext = nil, nil
	l.n--
}

// insertByArrival links r in (Arrive, seq) order.
func (l *arrivalList) insertByArrival(r *Request) {
	p := l.tail
	for p != nil && (p.Arrive > r.Arrive || p.Arrive == r.Arrive && p.seq > r.seq) {
		p = p.aprev
	}
	l.insertAfter(p, r)
}

// insertBySeq links r in seq order.
func (l *arrivalList) insertBySeq(r *Request) {
	p := l.tail
	for p != nil && p.seq > r.seq {
		p = p.aprev
	}
	l.insertAfter(p, r)
}

// bucket holds the arrived requests of one (queue, bank) pair in seq
// order through their bucket links. A request promoted from the future
// list out of seq order (a late-submitted but early-arriving one) walks
// back into seq position, the order FR-FCFS and FCFS tie-breaks rely on.
type bucket struct {
	head, tail *Request

	// bestHit caches the oldest request targeting the bank's open row
	// (nil when cached as "no hit"). It is invalidated when the bank's
	// open row changes or the cached request is served.
	bestHit  *Request
	hitValid bool
}

func (b *bucket) push(r *Request, openRow int) {
	p := b.tail
	for p != nil && p.seq > r.seq {
		p = p.bprev
	}
	r.bprev = p
	if p == nil {
		r.bnext = b.head
		b.head = r
	} else {
		r.bnext = p.bnext
		p.bnext = r
	}
	if r.bnext == nil {
		b.tail = r
	} else {
		r.bnext.bprev = r
	}
	// Maintain the cached best hit: a new request upgrades a cached
	// "no hit", and an out-of-order one can be older than the cached
	// hit itself.
	if b.hitValid && int(r.row) == openRow &&
		(b.bestHit == nil || r.seq < b.bestHit.seq) {
		b.bestHit = r
	}
}

func (b *bucket) remove(r *Request) {
	if r.bprev == nil {
		b.head = r.bnext
	} else {
		r.bprev.bnext = r.bnext
	}
	if r.bnext == nil {
		b.tail = r.bprev
	} else {
		r.bnext.bprev = r.bprev
	}
	r.bprev, r.bnext = nil, nil
	if b.bestHit == r {
		b.invalidateHit()
	}
}

func (b *bucket) invalidateHit() {
	b.bestHit = nil
	b.hitValid = false
}

// bestHitFor returns the oldest request whose row matches openRow,
// caching the answer until the open row changes.
func (b *bucket) bestHitFor(openRow int) *Request {
	if !b.hitValid {
		b.bestHit = nil
		if openRow >= 0 {
			for r := b.head; r != nil; r = r.bnext {
				if int(r.row) == openRow {
					b.bestHit = r
					break
				}
			}
		}
		b.hitValid = true
	}
	return b.bestHit
}

// reqQueue is one scheduling class of a channel.
type reqQueue struct {
	future  arrivalList // Arrive > channel clock
	buckets []bucket    // arrived requests, per bank
	live    []uint64    // bit b set while buckets[b] is non-empty
	readyN  int         // total requests across buckets

	// starve enables the starvation lists (FR-FCFS queues only; the
	// mitigation queue is served strictly oldest-first already).
	starve   bool
	aging    arrivalList // arrived requests, pending the age bound
	starving arrivalList // requests past starvationAge, by seq
}

func (q *reqQueue) init(nBanks int, starve bool) {
	q.buckets = make([]bucket, nBanks)
	q.live = make([]uint64, (nBanks+63)/64)
	q.starve = starve
}

// len counts every queued request, arrived or not (queue-capacity and
// drain-hysteresis checks use the total, as the linear queues did).
func (q *reqQueue) len() int { return q.future.n + q.readyN }

// add accepts a freshly submitted request. now is the channel clock:
// requests arriving in the past or present index as ready immediately.
func (q *reqQueue) add(r *Request, openRow int, now int64) {
	if r.Arrive > now {
		q.future.insertByArrival(r)
		return
	}
	q.insertReady(r, openRow)
}

func (q *reqQueue) insertReady(r *Request, openRow int) {
	q.buckets[r.bank].push(r, openRow)
	q.live[r.bank>>6] |= 1 << (r.bank & 63)
	q.readyN++
	if q.starve {
		q.aging.insertByArrival(r)
	}
}

// remove unlinks a picked request from its bucket and, in an FR-FCFS
// queue, from its aging or starving list, so no list keeps a pointer
// to a request that is about to be recycled.
func (q *reqQueue) remove(r *Request) {
	bk := &q.buckets[r.bank]
	bk.remove(r)
	if bk.head == nil {
		q.live[r.bank>>6] &^= 1 << (r.bank & 63)
	}
	q.readyN--
	if !q.starve {
		return
	}
	if r.starving {
		q.starving.unlink(r)
		r.starving = false
	} else {
		q.aging.unlink(r)
	}
}

// earliestFuture returns the arrival time of the next not-yet-arrived
// request, or Infinity.
func (q *reqQueue) earliestFuture() int64 {
	if q.future.head == nil {
		return Infinity
	}
	return q.future.head.Arrive
}

// oldestReady returns the lowest-seq arrived request (the mitigation
// queue's FCFS order), or nil.
func (q *reqQueue) oldestReady() *Request {
	if q.readyN == 0 {
		return nil
	}
	var best *Request
	for w, word := range q.live {
		for ; word != 0; word &= word - 1 {
			r := q.buckets[w<<6+bits.TrailingZeros64(word)].head
			if best == nil || r.seq < best.seq {
				best = r
			}
		}
	}
	return best
}

// starvingPick returns the lowest-seq arrived request whose age
// exceeds starvationAge, or nil. Requests move from the aging list
// (by Arrive) to the starving list (by seq) as the threshold passes
// them.
func (q *reqQueue) starvingPick(now int64) *Request {
	th := now - starvationAge
	for r := q.aging.head; r != nil && r.Arrive < th; r = q.aging.head {
		q.aging.unlink(r)
		r.starving = true
		q.starving.insertBySeq(r)
	}
	return q.starving.head
}
