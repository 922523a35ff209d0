package sim

// Port models a pipelined resource that accepts one new operation every
// Cycles cycles (its initiation interval). Acquire returns the cycle at
// which the caller's operation actually starts; callers add their own
// latency on top. A zero initiation interval means unlimited bandwidth.
type Port struct {
	Cycles uint64
	free   Cycle
}

// Acquire reserves the next slot at or after now and returns its cycle.
func (p *Port) Acquire(now Cycle) Cycle {
	if p.Cycles == 0 {
		return now
	}
	start := now
	if p.free > start {
		start = p.free
	}
	p.free = start + Cycle(p.Cycles)
	return start
}
