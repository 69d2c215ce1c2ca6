package mpi_test

// The symmetric exchange of the paper's hand-offs and direct-send
// compositing, at frame sizes above the loopback socket buffers: every
// rank sends each peer two large frames before it receives any. Both
// directions of a link then have a writer blocked until the other side's
// reader drains, so a reader that ever waits on its own link's writer
// (for the ack it piggybacks) deadlocks the pair until no byte has moved
// for PeerTimeout.
// The chaos legs sever the link in the middle of one of those frames.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mpi"
)

const (
	// largeFrame is above common Linux socket buffer maxima (tcp_wmem
	// 4 MB, tcp_rmem 32 MB on a 2-vCPU Xeon): an 8 MB frame fits in
	// them and never blocks its writer for long.
	largeFrame = 32 << 20
	// largeWire is one large frame's size on the wire: the 4-byte length,
	// the 32-byte seq/ack/tag/bytes header and the 6-byte value header.
	largeWire = largeFrame + 42
	largeTag  = 7
)

// fillLarge writes the payload src sends dst as its i-th large frame: a
// 256-byte period that differs for every (src, dst, i).
func fillLarge(b []byte, src, dst, i int) {
	for k := range 256 {
		b[k] = byte(k*7 + src*31 + dst*17 + i*5)
	}
	for n := 256; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// checkLarge reports whether m is the i-th large frame src sent dst.
func checkLarge(m mpi.Message, src, dst, i int) error {
	b, ok := m.Data.([]byte)
	if !ok || len(b) != largeFrame || m.Bytes != largeFrame {
		return fmt.Errorf("frame %d from rank %d: %T of %d bytes", i, src, m.Data, len(b))
	}
	want := make([]byte, 256)
	fillLarge(want, src, dst, i)
	for k := 0; k < len(b); k += len(want) {
		if !bytes.Equal(b[k:k+len(want)], want) {
			return fmt.Errorf("frame %d from rank %d differs in bytes %d-%d", i, src, k, k+len(want)-1)
		}
	}
	return nil
}

// exchangeLarge runs the exchange on one rank: a 1-byte warm-up each way
// (so every later frame carries a nonzero ack), then two large frames to
// every peer, then every receive. A receive that fails ends that peer's
// receives and is handed to lost; the payloads that did arrive must be
// byte-identical to what was sent.
func exchangeLarge(t *testing.T, c *mpi.Comm, lost func(src int, err error)) {
	me, n := c.Rank(), c.Size()
	for dst := 0; dst < n; dst++ {
		if dst != me {
			c.Send(dst, largeTag, 1, []byte{byte(me)})
		}
	}
	for src := 0; src < n; src++ {
		if src != me {
			c.Recv(src, largeTag)
		}
	}
	buf := make([]byte, largeFrame)
	for i := 0; i < 2; i++ {
		for dst := 0; dst < n; dst++ {
			if dst != me {
				fillLarge(buf, me, dst, i) // the frame holds a copy once Send returns
				c.Send(dst, largeTag, largeFrame, buf)
			}
		}
	}
	for src := 0; src < n; src++ {
		for i := 0; i < 2 && src != me; i++ {
			m, err := c.RecvErr(src, largeTag)
			if err != nil {
				lost(src, err)
				break
			}
			if err := checkLarge(m, src, me, i); err != nil {
				t.Errorf("rank %d: %v", me, err)
			}
		}
	}
}

// netTotals sums the transport counters over every rank.
func netTotals(rep mpi.NetReport) (s mpi.NetStats) {
	for _, r := range rep.Stats {
		s.Reconnects += r.Reconnects
		s.FramesResent += r.FramesResent
		s.PeersLost += r.PeersLost
	}
	return s
}

// TestNetSymmetricLargeFrames: the exchange completes in seconds with
// nothing healed, resent or lost, over one link and over four ranks all
// to all; a link severed halfway through a large frame heals to the same
// bytes, and, with reconnection off, the loss names the frame and its
// size.
func TestNetSymmetricLargeFrames(t *testing.T) {
	// The default tuning, under the race detector too: a link fails only
	// when no byte moves for PeerTimeout, however long a frame takes.
	var tun mpi.NetTuning
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%d-ranks", n), func(t *testing.T) {
			if n > 2 && mpi.RaceEnabled {
				t.Skip("12 large frames in flight at once; bounded to 2 ranks under -race")
			}
			start := time.Now()
			rep, err := mpi.RunNetErrs(n, tun, func(c *mpi.Comm) {
				exchangeLarge(t, c, func(src int, err error) {
					t.Errorf("rank %d: receive from rank %d: %v", c.Rank(), src, err)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, rerr := range rep.Errs {
				if rerr != nil {
					t.Errorf("rank %d: %v", r, rerr)
				}
			}
			if s := netTotals(rep); s.Reconnects != 0 || s.FramesResent != 0 || s.PeersLost != 0 {
				t.Errorf("reconnects %d, frames resent %d, peers lost %d; want 0 each",
					s.Reconnects, s.FramesResent, s.PeersLost)
			}
			t.Logf("%d ranks: %.2fs", n, time.Since(start).Seconds())
		})
	}

	// Once both large frames are acknowledged, their buffers are the
	// runtime's again: a resend-ring slot keeps at most keepFrame for the
	// next frame it holds. The barrier's frame from the peer carries the
	// ack, since the peer has received every frame before it enters.
	t.Run("acked-frames-released", func(t *testing.T) {
		rep, err := mpi.RunNetErrs(2, tun, func(c *mpi.Comm) {
			exchangeLarge(t, c, func(src int, err error) {
				t.Errorf("rank %d: receive from rank %d: %v", c.Rank(), src, err)
			})
			c.Barrier()
			if held := mpi.HeldFrameBytes(c); held >= 1<<20 {
				t.Errorf("rank %d holds %d B of frame buffers once its large frames are acknowledged, want under 1 MiB",
					c.Rank(), held)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, rerr := range rep.Errs {
			if rerr != nil {
				t.Errorf("rank %d: %v", r, rerr)
			}
		}
	})

	// Rank 0's second large frame to rank 1 (seq 3, after the warm-up and
	// the first) is half written, then its connection is severed.
	partial := []faultinject.NetFaultSite{{Src: 0, Dst: 1, Seq: 3}}
	t.Run("partial-write-heals", func(t *testing.T) {
		nc := faultinject.NewNetChaos(faultinject.NetChaosConfig{PartialAt: partial})
		tun := tun
		tun.Fault = nc
		rep, err := mpi.RunNetErrs(2, tun, func(c *mpi.Comm) {
			exchangeLarge(t, c, func(src int, err error) {
				t.Errorf("rank %d: receive from rank %d: %v", c.Rank(), src, err)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, rerr := range rep.Errs {
			if rerr != nil {
				t.Errorf("rank %d: %v", r, rerr)
			}
		}
		if got := nc.Stats().Partials; got != 1 {
			t.Fatalf("partial writes fired = %d, want 1", got)
		}
		s := netTotals(rep)
		if s.Reconnects != 2 || s.FramesResent < 1 || s.PeersLost != 0 {
			t.Errorf("reconnects %d, frames resent %d, peers lost %d; want 2 (one incident, both sides), >= 1, 0",
				s.Reconnects, s.FramesResent, s.PeersLost)
		}
	})
	t.Run("partial-write-names-frame", func(t *testing.T) {
		tun := tun
		tun.ReconnectAttempts = -1 // the first failure declares the peer lost
		tun.Fault = faultinject.NewNetChaos(faultinject.NetChaosConfig{PartialAt: partial})
		var cause error
		rep, err := mpi.RunNetErrs(2, tun, func(c *mpi.Comm) {
			exchangeLarge(t, c, func(int, error) {})
			if c.Rank() == 0 {
				// Rank 1 never sends this tag: only the loss ends the wait,
				// whether or not rank 1's frames all arrived before it.
				_, cause = c.RecvErr(1, largeTag+1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var ple *mpi.PeerLostError
		if !errors.As(cause, &ple) || ple.Rank != 1 {
			t.Fatalf("rank 0's receive from rank 1 failed with %v, want a *PeerLostError for rank 1", cause)
		}
		if want := fmt.Sprintf("frame 3 (%d B)", largeWire); !strings.Contains(cause.Error(), want) {
			t.Errorf("loss cause %q does not name %q", cause, want)
		}
		if s := netTotals(rep); s.PeersLost != 2 || s.Reconnects != 0 {
			t.Errorf("peers lost %d, reconnects %d; want 2 (one per side), 0", s.PeersLost, s.Reconnects)
		}
	})
}
