package mpi

// Regression tests for the latent transport bugs fixed alongside the
// network backend (PR 7):
//
//   - mailbox delete left the vacated tail slot populated, pinning the
//     moved message's payload through the slice's spare capacity;
//   - subWorld.recv forwarded AnyTag as a true wildcard to the parent,
//     letting a sub-communicator Recv steal world or sibling-sub traffic.

import (
	"runtime"
	"testing"
	"time"
)

// TestMailboxTakeZeroesTailSlot pins the fix at the data-structure level:
// after removing a message from the middle of the queue, the vacated slot
// in the backing array must hold the zero Message, not a stale copy of
// the moved tail entry.
func TestMailboxTakeZeroesTailSlot(t *testing.T) {
	b := newMailbox()
	payload := make([]byte, 1)
	b.put(Message{Src: 0, Tag: 1, Data: payload})
	b.put(Message{Src: 0, Tag: 2, Data: payload})
	b.put(Message{Src: 0, Tag: 3, Data: payload})
	if m, _ := b.get(AnySource, 2, 2); m.Tag != 2 {
		t.Fatalf("got tag %d, want 2", m.Tag)
	}
	tail := b.msgs[:cap(b.msgs)][len(b.msgs)]
	if tail.Data != nil || tail.Tag != 0 || tail.Src != 0 {
		t.Errorf("vacated tail slot not zeroed: %+v still pins its payload", tail)
	}
}

// TestMailboxDeleteUnpinsPayload proves the consequence end to end: once
// every message is consumed and dropped, a payload that transited the
// mailbox must become garbage-collectable even though the mailbox itself
// stays alive. Before the fix, the tail slot vacated by an out-of-order
// get kept the moved message's Data reachable indefinitely.
func TestMailboxDeleteUnpinsPayload(t *testing.T) {
	b := newMailbox()
	collected := make(chan struct{})
	func() {
		big := make([]byte, 1<<16)
		runtime.AddCleanup(&big[0], func(ch chan struct{}) { close(ch) }, collected)
		b.put(Message{Src: 0, Tag: 1, Data: []byte{1}})
		b.put(Message{Src: 0, Tag: 2, Data: big})
		// Out-of-order get of tag 1 copies the tag-2 message down one
		// slot; the vacated tail slot must not keep a second reference.
		if m, _ := b.get(AnySource, 1, 1); m.Tag != 1 {
			t.Fatalf("got tag %d, want 1", m.Tag)
		}
		if m, _ := b.get(AnySource, 2, 2); len(m.Data.([]byte)) != 1<<16 {
			t.Fatal("payload corrupted in transit")
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(b)
			return
		case <-deadline:
			t.Fatal("consumed payload still reachable: the mailbox pins it")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestSubRecvDoesNotStealWorldMessages runs concurrent world and
// sub-communicator traffic on every transport: a wildcard Recv on the sub
// must skip a world message already sitting in the shared mailbox and
// wait for the sub's own, and vice versa.
func TestSubRecvDoesNotStealWorldMessages(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		sub := c.Sub([]int{0, 1}, 0)
		if c.Rank() == 0 {
			c.Send(1, 5, 1, text("world"))
			sub.Send(1, 5, 1, text("sub"))
			return
		}
		// The world message arrives first (same sender, ordered sends),
		// so a leaky wildcard window would match it here.
		if got := str(sub.Recv(AnySource, AnyTag)); got != "sub" {
			t.Errorf("sub wildcard Recv got %q, want the sub message", got)
		}
		if got := str(c.Recv(AnySource, AnyTag)); got != "world" {
			t.Errorf("world Recv got %q, want the world message", got)
		}
	})
}

// TestSubRecvDoesNotStealSiblingMessages: two sub-communicators over the
// same ranks; a wildcard Recv on one sub must not consume the other's
// traffic even when that message was delivered first.
func TestSubRecvDoesNotStealSiblingMessages(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		subA := c.Sub([]int{0, 1}, 0)
		subB := c.Sub([]int{0, 1}, 1)
		if c.Rank() == 0 {
			subA.Send(1, 9, 1, text("from-A"))
			subB.Send(1, 9, 1, text("from-B"))
			return
		}
		if got := str(subB.Recv(AnySource, AnyTag)); got != "from-B" {
			t.Errorf("sub B wildcard Recv got %q, want its own message", got)
		}
		if got := str(subA.Recv(AnySource, AnyTag)); got != "from-A" {
			t.Errorf("sub A Recv got %q, want its own message", got)
		}
	})
}
