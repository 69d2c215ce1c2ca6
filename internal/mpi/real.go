package mpi

import (
	"sync"
	"time"
)

// realWorld is the wall-clock transport: ranks are goroutines, messages are
// delivered eagerly through per-rank mailboxes. Payloads are handed over by
// reference; a sender must not mutate a buffer after sending it.
type realWorld struct {
	start time.Time
	boxes []*mailbox
}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []Message
	err  error // fatal transport error: get returns it once the queue drains

	// lost maps a source rank to the loss that severed it permanently
	// (network transport only). Receives addressed to a lost rank fail
	// with the mapped error once no matching message remains; wildcard
	// receives are unaffected — their contract is "whatever arrives
	// next", which a lost peer can no longer influence.
	lost map[int]error
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func matches(m Message, src, tagLo, tagHi int) bool {
	return (src == AnySource || m.Src == src) && m.Tag >= tagLo && m.Tag <= tagHi
}

// takeMsg removes and returns s[i], preserving order. The vacated tail slot
// is zeroed before the slice shrinks: the plain
// append(s[:i], s[i+1:]...) delete keeps the old tail Message — and
// therefore its Data payload — reachable through the slice's spare capacity
// until some later send happens to overwrite the slot, pinning pooled or
// GC-collectable buffers for an unbounded time on quiet mailboxes.
func takeMsg(s *[]Message, i int) Message {
	msgs := *s
	m := msgs[i]
	copy(msgs[i:], msgs[i+1:])
	msgs[len(msgs)-1] = Message{}
	*s = msgs[:len(msgs)-1]
	return m
}

func (b *mailbox) put(m Message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// fail poisons the mailbox: blocked and future get calls return err
// once no matching message remains. Used by the network transport to
// surface a dead peer connection to the rank blocked on it.
func (b *mailbox) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// markLost records that messages from src can never arrive again. Any
// get blocked on src (and all future ones) unblocks with err once
// no matching message remains in the queue — already-delivered messages
// are still consumable, preserving per-pair FIFO up to the cut.
func (b *mailbox) markLost(src int, err error) {
	b.mu.Lock()
	if b.lost == nil {
		b.lost = make(map[int]error)
	}
	if b.lost[src] == nil {
		b.lost[src] = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// drain discards every unconsumed message and returns how many there
// were, releasing their payloads to the garbage collector. Used by
// NetWorld.Close to surface in-flight message loss instead of dropping
// it silently.
func (b *mailbox) drain() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.msgs)
	for i := range b.msgs {
		b.msgs[i] = Message{}
	}
	b.msgs = b.msgs[:0]
	return n
}

// get removes and returns the first message matching (src, tag range),
// blocking until one arrives. A poisoned mailbox or a receive addressed
// to a lost rank returns the recorded error once no matching message
// remains.
func (b *mailbox) get(src, tagLo, tagHi int) (Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.msgs {
			if matches(m, src, tagLo, tagHi) {
				return takeMsg(&b.msgs, i), nil
			}
		}
		if b.err != nil {
			return Message{}, b.err
		}
		if src != AnySource && b.lost != nil {
			if err := b.lost[src]; err != nil {
				return Message{}, err
			}
		}
		b.cond.Wait()
	}
}

func (w *realWorld) send(c *Comm, dst, tag int, bytes int64, data any) {
	w.boxes[dst].put(Message{Src: c.rank, Tag: tag, Bytes: bytes, Data: data})
}

func (w *realWorld) recv(c *Comm, src, tagLo, tagHi int) (Message, error) {
	return w.boxes[c.rank].get(src, tagLo, tagHi)
}

func (w *realWorld) now(c *Comm) float64 { return time.Since(w.start).Seconds() }

func (w *realWorld) compute(c *Comm, seconds float64) {} // real work takes real time

func (w *realWorld) ioRead(c *Comm, bytes int64, seeks int) {} // real reads go through pfs

// RunReal executes body on n goroutine ranks over the wall-clock transport
// and blocks until all ranks return. It returns the elapsed wall time in
// seconds.
func RunReal(n int, body func(c *Comm)) float64 {
	if n <= 0 {
		panic("mpi: RunReal needs at least one rank")
	}
	w := &realWorld{start: time.Now()}
	w.boxes = make([]*mailbox, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		c := &Comm{rank: r, size: n, w: w}
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
	return time.Since(w.start).Seconds()
}
