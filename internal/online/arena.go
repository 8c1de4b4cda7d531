package online

// The engine's mutation path used to allocate three fresh slices every
// time a machine was journaled (copy-on-truncation) — the dominant
// allocation source on interior mutations (hundreds of allocs per op).
// Instead, retired machine-state slice triples are kept in an
// engine-owned pool: makeDirty/splice take a recycled triple for the
// machine's new working state, commit recycles the journaled
// pre-mutation triples, and rollback recycles the abandoned working
// triples. Pool entries grow to the instance's high-water marks, after
// which every steady-state mutation runs without allocating.

// grabMach returns a recycled machine-state triple (empty, capacity
// preserved) or a zero triple whose slices grow on first use.
func (e *Engine) grabMach() mach {
	if ln := len(e.machPool); ln > 0 {
		mc := e.machPool[ln-1]
		e.machPool[ln-1] = mach{}
		e.machPool = e.machPool[:ln-1]
		return mc
	}
	return mach{}
}

// recycleMach returns a no-longer-referenced triple to the pool.
func (e *Engine) recycleMach(mc mach) {
	mc.placed = mc.placed[:0]
	mc.cum = mc.cum[:0]
	mc.cumProd = mc.cumProd[:0]
	mc.cumDens = mc.cumDens[:0]
	mc.cumNum = mc.cumNum[:0]
	mc.cumInvP = mc.cumInvP[:0]
	mc.cumMaxD = mc.cumMaxD[:0]
	e.machPool = append(e.machPool, mc)
}
