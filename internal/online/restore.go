package online

import "fmt"

// PlacedLists returns a deep copy of every machine's placed task ids in
// fold order, indexed by machine input index. Together with Tasks()
// (which fixes the id space) this captures everything NewEngine needs
// (via Options.Placed) to rebuild the engine bit-for-bit: under the
// ordered policy the lists are redundant (state is a function of the
// multiset — the engine's core invariant), but under local policies they
// are history: removals splice and WCET updates re-admit at the tail, so
// the same resident multiset can sit in many placements.
func (e *Engine) PlacedLists() [][]int32 {
	out := make([][]int32, len(e.machs))
	for j := range e.machs {
		out[j] = append([]int32(nil), e.machs[j].placed...)
	}
	return out
}

// restorePlacement refolds the recorded per-machine placed lists (local
// policies only; an ordered engine re-solves, byte-identically by the
// engine invariant). Every placement is re-checked with the same
// admission predicate the original run passed: per-machine feasibility
// of the final state implies feasibility of every fold prefix (loads
// only grow along the fold and the bounds only tighten), so a legitimate
// snapshot always verifies, while a corrupted one is rejected instead of
// resurrected. Fold order within a machine is the recorded order;
// machines are mutually independent (every aggregate is per-machine), so
// the across-machine order is irrelevant to the resulting floats.
func (e *Engine) restorePlacement(placed [][]int32) error {
	n, m := len(e.tasks), len(e.p)
	if len(placed) != m {
		return fmt.Errorf("online: restore: %d placed lists for %d machines", len(placed), m)
	}
	seen := make([]bool, n)
	count := 0
	for j := range placed {
		for _, id := range placed[j] {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("online: restore: machine %d places task id %d out of range [0, %d)", j, id, n)
			}
			if seen[id] {
				return fmt.Errorf("online: restore: task %d placed twice", id)
			}
			seen[id] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("online: restore: %d of %d tasks placed", count, n)
	}
	for j := range placed {
		for _, id := range placed[j] {
			ok := e.fitsAgg(j, id)
			if perr := e.takeProbeErr(); perr != nil {
				return fmt.Errorf("online: restore: %w", perr)
			}
			if !ok {
				return fmt.Errorf("online: restore: task %d does not satisfy machine %d's admission bound — recorded placement is inconsistent", id, j)
			}
			e.assign[id] = int32(j)
			e.assignPub[id] = j
			e.place(j, id)
		}
	}
	return nil
}
