// Package clocked is cyclecharge analyzer testdata.
package clocked

import (
	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
)

// WindowCycles is the documented operation window.
const WindowCycles = 4

// Engine is a clock-domain structure.
type Engine struct {
	clock *hwsim.Clock
	port  *membus.Port
}

// GoodDocumented completes one 4-cycle operation window; the literal
// agrees with this doc comment. Costs 4 cycles.
func (e *Engine) GoodDocumented() {
	e.clock.Advance(4)
}

// GoodMarker uses the explicit marker. wfqlint:cycles 7
func (e *Engine) GoodMarker() {
	e.clock.Advance(7)
}

// GoodNamedConstant charges through a shared named constant, which is
// self-documenting; no doc-comment number is required.
func (e *Engine) GoodNamedConstant() {
	e.clock.Advance(uint64(WindowCycles))
}

// GoodTickDocumented advances the pipeline by one clock cycle.
func (e *Engine) GoodTickDocumented() {
	e.clock.Tick()
}

// BadUndocumented charges a magic number with no documented cost.
func (e *Engine) BadUndocumented() {
	e.clock.Advance(3) // want `Clock.Advance\(3\) in exported BadUndocumented charges an undocumented literal cycle cost`
}

// BadDisagrees completes one 4-cycle operation window.
func (e *Engine) BadDisagrees() {
	e.clock.Advance(5) // want `Clock.Advance\(5\) disagrees with the documented cycle cost of BadDisagrees \(doc mentions 4\)`
}

// BadTick nudges the pipeline forward.
func (e *Engine) BadTick() {
	e.clock.Tick() // want `Clock.Tick in exported BadTick charges a cycle its doc comment never mentions`
}

// unexportedHelper may use a literal; only exported operations carry
// the documented-budget contract.
func (e *Engine) unexportedHelper() {
	e.clock.Advance(2)
}

// JustifiedLiteral suppresses with a reason.
func (e *Engine) JustifiedLiteral() {
	//wfqlint:ignore cyclecharge transient bring-up stub, budget documented in DESIGN.md
	e.clock.Advance(9)
}
