package serve

// DecodeWireInto exposes the one wire-frame parser to the external tests,
// which hold its in-place path to DecodeWireFrame's checks.
var DecodeWireInto = decodeWireInto

// Pins returns the pins held on the entries the cache holds, so the HTTP
// tests can check that every request path releases what it pinned.
func (c *FrameCache) Pins() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, f := range c.m {
		n += f.pins
	}
	return n
}
