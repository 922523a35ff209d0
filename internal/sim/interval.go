package sim

// Integrator accounts the cycles a piecewise-constant quantity, e.g.
// "number of ready wavefronts", spends at zero while armed. Call Add
// whenever the value changes and Finish at the end. The zero value
// starts at value 0 at cycle 0, disarmed.
type Integrator struct {
	last  Cycle
	value int64
	// zeroTime accumulates cycles during which value == 0 while armed;
	// used for stall accounting ("no wavefront ready").
	zeroTime uint64
	armed    bool
}

// Arm enables zero-time accounting from cycle c onward. A CU arms its
// integrator once it has live work; stall cycles are only meaningful then.
func (g *Integrator) Arm(c Cycle) {
	g.advance(c)
	g.armed = true
}

// Disarm stops zero-time accounting at cycle c (e.g. all wavefronts done).
func (g *Integrator) Disarm(c Cycle) {
	g.advance(c)
	g.armed = false
}

// Add adjusts the quantity by delta at cycle c.
func (g *Integrator) Add(c Cycle, delta int64) {
	g.advance(c)
	g.value += delta
}

func (g *Integrator) advance(c Cycle) {
	if c < g.last {
		panic("sim: integrator time moved backwards")
	}
	if g.armed && g.value == 0 {
		g.zeroTime += uint64(c - g.last)
	}
	g.last = c
}

// Finish closes the accounting at cycle c.
func (g *Integrator) Finish(c Cycle) { g.advance(c) }

// ZeroCycles returns the number of cycles spent at value 0 while armed.
func (g *Integrator) ZeroCycles() uint64 { return g.zeroTime }
