package workload

import "repro/internal/dram"

// Characterization aggregates the Table 3 statistics of a generated
// trace so the generator can be validated against the paper's numbers.
type Characterization struct {
	Name       string
	MPKI       float64
	UniqueRows int
	Hot250     int
	ActsPerRow float64
	Requests   int64
	Writes     int64
}

// Characterize runs all cores' streams to exhaustion and measures the
// Table 3 statistics. An activation is counted per generated burst;
// the timing simulator may add a few conflict-induced reactivations on
// top, which is noted in EXPERIMENTS.md.
func Characterize(p Profile, base StreamConfig) (Characterization, error) {
	acts := make(map[uint64]int64)
	var reqs, writes, insts int64
	streams, err := NewStreams(p, base)
	if err != nil {
		return Characterization{}, err
	}
	for _, s := range streams {
		lastRowKey := uint64(1<<63 - 1)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			reqs++
			insts += int64(r.Gap) + 1
			if r.Write {
				writes++
				continue
			}
			loc := base.Mem.Decode(r.Line)
			key := rowKey(base.Mem, loc)
			if key != lastRowKey {
				acts[key]++
				lastRowKey = key
			}
		}
	}
	c := Characterization{
		Name:       p.Name,
		UniqueRows: len(acts),
		Requests:   reqs,
		Writes:     writes,
	}
	var total int64
	for _, n := range acts {
		total += n
		if n > 250 {
			c.Hot250++
		}
	}
	if len(acts) > 0 {
		c.ActsPerRow = float64(total) / float64(len(acts))
	}
	if insts > 0 {
		c.MPKI = float64(reqs-writes) / float64(insts) * 1000
	}
	return c, nil
}

func rowKey(mem dram.Config, l dram.Loc) uint64 {
	return uint64(mem.GlobalRow(l))
}
