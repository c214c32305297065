package track

import (
	"fmt"

	"repro/internal/rh"
)

// CAT is a functional model of the Counter-Adaptive-Tree tracker of
// Seyedzadeh et al. (ISCA 2018; paper Section 2.4). Each bank owns a
// binary tree over its row-address range. A node counts activations of
// every row in its range; when the count reaches the per-level split
// threshold and nodes remain in the pool, the node splits, zooming the
// counting resolution toward hot rows. A node covering a single row
// mitigates that row when its count reaches the split threshold.
//
// Security argument mirrored in the tests: a row's true activations
// are bounded by the sum of the counts accumulated along its path, and
// with equal per-level thresholds t = threshold/(depth+1) the sum never
// exceeds the operating threshold before a single-row node mitigates.
// When the node pool is exhausted a multi-row leaf that reaches its
// threshold can only refresh the whole range, recorded in
// UnsafeMitigations: the sizing pressure Table 1 quantifies.
type CAT struct {
	geom      Geometry
	threshold int
	splitAt   int
	poolSize  int
	banks     []catBank

	// Stats accumulate over the tracker lifetime.
	Mitigations       int64
	Splits            int64
	UnsafeMitigations int64 // multi-row leaf mitigations (pool exhausted)
}

type catBank struct {
	root     *catNode
	poolUsed int
}

type catNode struct {
	lo, hi      int // row range [lo, hi)
	count       int
	left, right *catNode
}

var _ rh.Tracker = (*CAT)(nil)

// NewCAT creates a CAT tracker. poolPerBank <= 0 selects the calibrated
// sizing 16*ACTMax/T_RH nodes per bank.
func NewCAT(geom Geometry, trh, poolPerBank int) (*CAT, error) {
	if geom.Rows <= 0 || geom.RowsPerBank <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	t := mitigationThreshold(trh)
	depth := 0
	for (1 << depth) < geom.RowsPerBank {
		depth++
	}
	splitAt := t / (depth + 1)
	if splitAt < 1 {
		splitAt = 1
	}
	if poolPerBank <= 0 {
		poolPerBank = 16 * geom.ACTMax / trh
	}
	c := &CAT{
		geom:      geom,
		threshold: t,
		splitAt:   splitAt,
		poolSize:  poolPerBank,
		banks:     make([]catBank, geom.Banks),
	}
	c.resetBanks()
	return c, nil
}

func (c *CAT) resetBanks() {
	for i := range c.banks {
		c.banks[i] = catBank{
			root:     &catNode{lo: 0, hi: c.geom.RowsPerBank},
			poolUsed: 1,
		}
	}
}

// Name implements rh.Tracker.
func (c *CAT) Name() string { return "cat" }

// Activate implements rh.Tracker.
func (c *CAT) Activate(row rh.Row) bool {
	b := &c.banks[c.geom.bank(row)]
	inBank := int(row) % c.geom.RowsPerBank

	// Walk to the deepest node containing the row.
	n := b.root
	for n.left != nil {
		if inBank < n.left.hi {
			n = n.left
		} else {
			n = n.right
		}
	}
	n.count++
	if n.count < c.splitAt {
		return false
	}
	if n.hi-n.lo == 1 {
		// Single-row node: mitigate and restart its count.
		n.count = 0
		c.Mitigations++
		return true
	}
	if b.poolUsed+2 <= c.poolSize {
		mid := (n.lo + n.hi) / 2
		n.left = &catNode{lo: n.lo, hi: mid}
		n.right = &catNode{lo: mid, hi: n.hi}
		b.poolUsed += 2
		c.Splits++
		return false
	}
	// Pool exhausted: the hardware would have to refresh the whole
	// range (or give up). Refreshing a multi-row range is recorded as
	// unsafe because untouched rows in the range consumed threshold
	// budget they never spent.
	n.count = 0
	c.Mitigations++
	c.UnsafeMitigations++
	return true
}

// ResetWindow implements rh.Tracker.
func (c *CAT) ResetWindow() {
	c.resetBanks()
}

// SRAMBytes implements rh.Tracker: 36 bytes per tree node, the Table 1
// calibration (range bounds, counter, child pointers): 1.5 MB per rank
// at T_RH = 500.
func (c *CAT) SRAMBytes() int {
	return c.poolSize * c.geom.Banks * 36
}
