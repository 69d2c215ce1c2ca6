package mpi

import "fmt"

// subTagStride separates the tag spaces of different sub-communicators from
// each other and from the world communicator. World tags must stay below
// this value.
const subTagStride = 1 << 28

// subWorld adapts a member's world communicator: local ranks map to the
// member list and tags are offset into a disjoint namespace per comm id.
type subWorld struct {
	parent  *Comm
	members []int
	offset  int
}

// Sub creates a sub-communicator over the given world ranks (which must
// include this rank). Every member must call Sub with the identical member
// list and id; id scopes the tag namespace, so two concurrently live
// sub-communicators must use different ids. Barriers and point-to-point
// operations on the result involve only the members.
func (c *Comm) Sub(members []int, id int) *Comm {
	if id < 0 {
		panic("mpi: Sub id must be non-negative")
	}
	local := -1
	for i, w := range members {
		if w < 0 || w >= c.size {
			panic(fmt.Sprintf("mpi: Sub member %d out of range", w))
		}
		if w == c.rank {
			local = i
		}
	}
	if local < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in Sub member list %v", c.rank, members))
	}
	return &Comm{
		rank: local,
		size: len(members),
		w: &subWorld{
			parent:  c,
			members: append([]int(nil), members...),
			offset:  (id + 1) * subTagStride,
		},
	}
}

func (w *subWorld) send(c *Comm, dst, tag int, bytes int64, data any) {
	w.parent.w.send(w.parent, w.members[dst], tag+w.offset, bytes, data)
}

func (w *subWorld) recv(c *Comm, src, tagLo, tagHi int) (Message, error) {
	wsrc := AnySource
	if src != AnySource {
		wsrc = w.members[src]
	}
	// A wildcard arrives as the full tag space; clamp it to one stride so
	// the parent-level window is exactly this sub's namespace
	// [offset, offset+subTagStride). Passing the wildcard through unclamped
	// would let a sub Recv steal world-comm or sibling-sub messages from
	// the shared mailbox.
	if tagHi >= subTagStride {
		tagHi = subTagStride - 1
	}
	m, err := w.parent.w.recv(w.parent, wsrc, tagLo+w.offset, tagHi+w.offset)
	if err != nil {
		// A lost peer is reported in the numbering the caller addressed it by.
		if ple, ok := err.(*PeerLostError); ok && ple.Rank == wsrc {
			err = &PeerLostError{Rank: src, Cause: ple.Cause}
		}
		return Message{}, err
	}
	m.Tag -= w.offset
	for i, wm := range w.members {
		if wm == m.Src {
			m.Src = i
			break
		}
	}
	return m, nil
}

func (w *subWorld) now(c *Comm) float64                    { return w.parent.w.now(w.parent) }
func (w *subWorld) compute(c *Comm, seconds float64)       { w.parent.w.compute(w.parent, seconds) }
func (w *subWorld) ioRead(c *Comm, bytes int64, seeks int) { w.parent.w.ioRead(w.parent, bytes, seeks) }
