package mpi

// RaceEnabled reports whether the race detector is on, for the package's
// external tests.
const RaceEnabled = raceEnabled

// HeldFrameBytes is the capacity of the frame buffers c's network
// transport still holds for its peers: every resend-ring slot, and the
// scratch frames to lost peers are encoded into. Call it from c's rank
// goroutine, which owns the slot a send encodes into.
func HeldFrameBytes(c *Comm) int {
	n := 0
	for _, p := range c.w.(*netWorld).peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		for _, s := range p.ring {
			n += cap(s.buf)
		}
		n += cap(p.enc)
		p.mu.Unlock()
	}
	return n
}
