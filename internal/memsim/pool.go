package memsim

// shared is per-Memory state the channels use in common: the request
// free list and the global submission counter. seq is global (not per
// channel) so a recycled request can never collide with a stale aging
// or starving entry's stamp on another channel.
type shared struct {
	seq  int64
	free []*Request
}

func (sh *shared) nextSeq() int64 {
	sh.seq++
	return sh.seq
}

// poolSlab is how many requests an empty free list refills with in
// one allocation. Metadata bursts (a Hydra group initialization, a
// row-swap copy) draw many requests between two barriers; refilling
// one at a time made those bursts the main allocation source of a
// cell.
const poolSlab = 64

// get returns a zeroed pooled request.
func (sh *shared) get() *Request {
	if len(sh.free) == 0 {
		slab := make([]Request, poolSlab)
		for i := len(slab) - 1; i >= 0; i-- {
			sh.free = append(sh.free, &slab[i])
		}
	}
	n := len(sh.free)
	r := sh.free[n-1]
	sh.free[n-1] = nil
	sh.free = sh.free[:n-1]
	*r = Request{pooled: true}
	return r
}

// release returns a serviced pooled request to the free list. The
// negative seq keeps any stale aging or starving entries pointing at it
// dead.
func (sh *shared) release(r *Request) {
	*r = Request{pooled: true, seq: -1}
	sh.free = append(sh.free, r)
}

// NewRequest returns a Request from the memory system's pool. Pooled
// requests are recycled automatically once serviced — when their
// completion event drains at the epoch barrier, after OnFinish
// returns — which keeps steady-state stepping allocation-free; do not
// retain them afterwards. Requests allocated
// directly with &Request{} keep working and are simply never recycled.
//
// Ownership: a pooled request belongs to the caller until Submit
// accepts it. If Submit reports false (queue full), the caller still
// owns the request and may retry it later.
func (m *Memory) NewRequest() *Request {
	return m.sh.get()
}
