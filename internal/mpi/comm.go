// Package mpi provides the message-passing runtime the visualization
// pipeline runs on. It mirrors the MPI subset the pipeline uses (blocking
// point-to-point with tag matching, plus the barrier) and runs over one of
// three interchangeable transports:
//
//   - a real transport (RunReal): ranks are goroutines on the local machine,
//     messages move through mailboxes instantly, and time is wall-clock.
//     Used to run the actual renderer on actual data.
//
//   - a simulated transport (RunSim): ranks are processes of a deterministic
//     discrete-event kernel (internal/sim); message transfers consume
//     bandwidth on per-rank NIC links, file reads consume parallel-file-
//     system bandwidth, and Compute advances virtual time. Used to run
//     paper-scale configurations (100M cells, 400 MB per timestep) and
//     reproduce the paper's timing figures.
//
//   - a network transport (RunNet / Join): ranks are processes connected
//     over TCP with length-prefixed frames and persistent per-peer
//     connections; payloads cross the wire through the codec registry
//     (RegisterCodec). Used to span real machines. RunNet hosts the ranks
//     as in-process goroutines talking through real loopback sockets —
//     the same wire path as the multi-process form — so tests can pin
//     bit-identical behavior against RunReal.
//
// The pipeline code is written once against *Comm and behaves identically
// under all transports.
package mpi

import (
	"errors"
	"fmt"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// collTagBase is the start of the tag namespace reserved for Barrier.
// Application tags must stay below this value.
const collTagBase = 1 << 24

// maxTag is the upper bound of the tag space, used when a wildcard Recv is
// widened into a tag range for the transport layer.
const maxTag = int(^uint(0) >> 1)

// Message is a received message. Bytes is the modeled payload size (drives
// virtual transfer time under RunSim); Data is the actual payload, which may
// be nil in cost-model runs.
type Message struct {
	Src   int
	Tag   int
	Bytes int64
	Data  any
}

// ErrPeerLost is the sentinel every peer-loss failure wraps: a network
// peer whose connection died and whose reconnect budget is exhausted is
// declared lost, and receives addressed to it fail with an error for
// which errors.Is(err, ErrPeerLost) is true (concretely a
// *PeerLostError carrying the rank and root cause). Sends to a lost
// rank are silently dropped — the payload has nowhere to go and the
// receiving layers account the loss — so send-side loops stay healthy
// while receivers degrade explicitly.
var ErrPeerLost = errors.New("mpi: peer lost")

// ErrRankKilled is the root cause recorded when fault injection kills
// this rank itself (NetFaultKill): every local communication surface
// fails with an error wrapping it.
var ErrRankKilled = errors.New("mpi: rank killed by fault injection")

// PeerLostError reports a permanently lost peer rank. It matches
// ErrPeerLost via errors.Is and exposes the root cause via Unwrap.
type PeerLostError struct {
	// Rank is the lost peer's world rank.
	Rank int
	// Cause is the final transport error that exhausted the reconnect
	// budget (last dial failure, heartbeat timeout, ...).
	Cause error
}

// Error formats the lost rank and its root cause.
func (e *PeerLostError) Error() string {
	return fmt.Sprintf("mpi: peer rank %d lost: %v", e.Rank, e.Cause)
}

// Unwrap returns the root transport cause.
func (e *PeerLostError) Unwrap() error { return e.Cause }

// Is reports ErrPeerLost as a match, so callers can classify with
// errors.Is(err, ErrPeerLost) without knowing the concrete type.
func (e *PeerLostError) Is(target error) bool { return target == ErrPeerLost }

// world is the transport behind a communicator. recv matches tags in the
// inclusive range [tagLo, tagHi]; Comm.Recv widens AnyTag into the full
// range, and sub-communicators narrow wildcards to their own tag window so
// they cannot steal world or sibling-sub messages from a shared mailbox.
type world interface {
	send(c *Comm, dst, tag int, bytes int64, data any)
	recv(c *Comm, src, tagLo, tagHi int) Message
	now(c *Comm) float64
	compute(c *Comm, seconds float64)
	ioRead(c *Comm, bytes int64, seeks int)
}

// lossyWorld is the optional transport surface behind RecvErr:
// transports whose receives can fail (a lost network peer, a poisoned
// mailbox) implement it. The simulated transport does not — RecvErr
// falls back to the blocking panic-on-failure recv there, which is
// equivalent because simulated peers never die.
type lossyWorld interface {
	recvErr(c *Comm, src, tagLo, tagHi int) (Message, error)
}

// Comm is one rank's view of the communicator. All methods must be called
// from that rank's own goroutine/process.
type Comm struct {
	rank    int
	size    int
	w       world
	collSeq int

	// Stats accumulated by this rank.
	BytesSent   int64
	BytesRecv   int64
	MsgsSent    int
	MsgsRecv    int
	IOBytesRead int64
	IOSeeks     int
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Now returns elapsed time in seconds: virtual time under RunSim,
// wall-clock since RunReal started otherwise.
func (c *Comm) Now() float64 { return c.w.now(c) }

// Compute charges seconds of computation. Under RunSim it advances virtual
// time; under RunReal it is a no-op (real computation takes real time).
func (c *Comm) Compute(seconds float64) { c.w.compute(c, seconds) }

// IORead charges a parallel-file-system read of the given size and number
// of noncontiguous segments (seeks). Under RunReal it is a no-op; real reads
// go through internal/pfs, which performs them for real.
func (c *Comm) IORead(bytes int64, seeks int) {
	c.IOBytesRead += bytes
	c.IOSeeks += seeks
	c.w.ioRead(c, bytes, seeks)
}

func (c *Comm) checkPeer(r int, op string) {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", op, r, c.size))
	}
}

// Send delivers a message to dst, blocking until the payload has been
// transferred out of this rank (eager/instant under RunReal; for the
// duration of the modeled transfer under RunSim — this is the sender
// occupancy the paper calls Ts).
func (c *Comm) Send(dst, tag int, bytes int64, data any) {
	c.checkPeer(dst, "Send")
	c.BytesSent += bytes
	c.MsgsSent++
	c.w.send(c, dst, tag, bytes, data)
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// Use AnySource / AnyTag as wildcards.
func (c *Comm) Recv(src, tag int) Message {
	if src != AnySource {
		c.checkPeer(src, "Recv")
	}
	lo, hi := tag, tag
	if tag == AnyTag {
		lo, hi = 0, maxTag
	}
	m := c.w.recv(c, src, lo, hi)
	c.BytesRecv += m.Bytes
	c.MsgsRecv++
	return m
}

// RecvErr is Recv with transport failure reported as an error instead
// of a panic: a receive addressed to a lost peer rank returns an error
// matching ErrPeerLost (once every already-delivered message from that
// rank has been consumed), and a fatally poisoned transport returns its
// error. On transports that cannot lose peers (RunReal, RunSim) RecvErr
// succeeds exactly where Recv would.
func (c *Comm) RecvErr(src, tag int) (Message, error) {
	if src != AnySource {
		c.checkPeer(src, "RecvErr")
	}
	lo, hi := tag, tag
	if tag == AnyTag {
		lo, hi = 0, maxTag
	}
	lw, ok := c.w.(lossyWorld)
	if !ok {
		m := c.w.recv(c, src, lo, hi)
		c.BytesRecv += m.Bytes
		c.MsgsRecv++
		return m, nil
	}
	m, err := lw.recvErr(c, src, lo, hi)
	if err != nil {
		return Message{}, err
	}
	c.BytesRecv += m.Bytes
	c.MsgsRecv++
	return m, nil
}

// Barrier blocks until every rank has entered it (dissemination algorithm
// over point-to-point operations in the reserved collective tag
// namespace). Every rank must call it in the same order; a per-rank
// sequence number isolates consecutive barriers.
func (c *Comm) Barrier() {
	c.collSeq++
	tag := collTagBase + c.collSeq
	for k := 1; k < c.size; k <<= 1 {
		dst := (c.rank + k) % c.size
		src := (c.rank - k + c.size) % c.size
		c.Send(dst, tag, 1, nil)
		c.Recv(src, tag)
	}
}
