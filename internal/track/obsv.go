package track

import "repro/internal/obsv"

// This file registers every baseline tracker into the observability
// layer (internal/obsv). Each scheme exports its lifetime counters
// under its own metric family — "graphene.*", "cra.*", "ocpr.*",
// "para.*" — plus the shared "tracker.mitigations" name the harness
// aggregates across schemes. All names are documented in
// docs/METRICS.md.

// CollectInto implements obsv.Source.
func (g *Graphene) CollectInto(r *obsv.Registry) {
	r.Count("graphene.mitigations", g.Mitigations)
	r.Count("tracker.mitigations", g.Mitigations)
	var spill int64
	for i := range g.banks {
		spill += int64(g.banks[i].spillover)
	}
	r.Gauge("graphene.spillover", float64(spill))
}

// CollectInto implements obsv.Source.
func (c *CRA) CollectInto(r *obsv.Registry) {
	r.Count("cra.mitigations", c.Mitigations)
	r.Count("cra.hits", c.Hits)
	r.Count("cra.miss_fetches", c.MissFetches)
	r.Count("cra.writebacks", c.Writebacks)
	r.Count("tracker.mitigations", c.Mitigations)
}

// CollectInto implements obsv.Source.
func (o *OCPR) CollectInto(r *obsv.Registry) {
	r.Count("ocpr.mitigations", o.Mitigations)
	r.Count("tracker.mitigations", o.Mitigations)
}

// CollectInto implements obsv.Source.
func (p *PARA) CollectInto(r *obsv.Registry) {
	r.Count("para.mitigations", p.Mitigations)
	r.Count("tracker.mitigations", p.Mitigations)
}

// CollectInto implements obsv.Source.
func (s *START) CollectInto(r *obsv.Registry) {
	r.Count("start.mitigations", s.Mitigations)
	r.Count("tracker.mitigations", s.Mitigations)
	r.Gauge("start.spillover", float64(s.pool.spillover))
	r.Gauge("start.occupancy", float64(len(s.pool.slots)))
}

// CollectInto implements obsv.Source.
func (m *MINT) CollectInto(r *obsv.Registry) {
	r.Count("mint.mitigations", m.Mitigations)
	r.Count("tracker.mitigations", m.Mitigations)
}

// CollectInto implements obsv.Source.
func (d *DAPPER) CollectInto(r *obsv.Registry) {
	r.Count("dapper.mitigations", d.Mitigations)
	r.Count("tracker.mitigations", d.Mitigations)
	var spill int64
	for i := range d.banks {
		spill += int64(d.banks[i].spillover)
	}
	r.Gauge("dapper.spillover", float64(spill))
}
