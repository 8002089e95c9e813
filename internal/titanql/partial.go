package titanql

import (
	"bytes"
	"fmt"

	"titanre/internal/console"
	"titanre/internal/store"
)

// Cluster-side query execution. A router fanning one query out to N
// replicas cannot merge rendered Docs — rank truncation and string
// rendering are only valid after the global fold. ExecutePartial is
// Execute stopping short of both: it runs the compiled plan over the
// replica's own rows and exports the raw accumulator. MergePartials is
// the router's other half: fold the partials into one accumulator, then
// rank and render exactly as a single Execute would have. For rows
// partitioned across replicas in any way, the merged Doc is
// byte-identical to Execute over the union — the cluster face of the
// standing equivalence gate. /rollup, /top and /query all answer
// ?partial=1 with a Partial, so one merge serves all three.

// Partial is one replica's share of a query: the plan it executed
// (ranking is applied only after merging), its canonical spelling and
// the raw accumulator. The spelling travels as bytes because a JSON
// string would replace any invalid UTF-8 a glob holds, and the merged
// document must echo it byte for byte.
type Partial struct {
	Query []byte `json:"query"`
	Plan  *Plan  `json:"plan"`
	store.Partial
}

// ExecutePartial runs the compiled plan over one consistent snapshot
// and exports the unrendered, unranked accumulator.
func (c *Compiled) ExecutePartial(segs []*store.Segment, tail []console.Event, workers int) Partial {
	return Partial{Query: []byte(c.plan.String()), Plan: c.plan, Partial: c.scan(segs, tail, workers).Partial()}
}

// MergePartials folds per-replica partials of one query into the final
// document. All partials must carry the same plan (the same compiled
// plan ran on every replica); ranking is applied after the merge, which
// is the only point it is sound.
func MergePartials(parts []Partial) (Doc, error) {
	if len(parts) == 0 {
		return Doc{}, fmt.Errorf("titanql: merge: no partials")
	}
	first := parts[0]
	for i, p := range parts {
		if p.Plan == nil || !bytes.Equal(p.Query, first.Query) || p.Plan.URLForm != first.Plan.URLForm {
			return Doc{}, fmt.Errorf("titanql: merge: partial %d plan differs from %q", i, first.Query)
		}
	}
	plan := first.Plan
	acc, err := plan.newAcc()
	if err != nil {
		return Doc{}, fmt.Errorf("titanql: merge: %w", err)
	}
	for _, p := range parts {
		acc.AddPartial(p.Partial)
	}
	return plan.render(string(first.Query), acc), nil
}
