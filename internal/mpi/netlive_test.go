package mpi

// The liveness rule, white-box over one loopback TCP pair: a link has
// failed only when no byte has moved on it for PeerTimeout. A frame that
// takes many PeerTimeouts to cross, in either direction, is healthy while
// its bytes move; a stream that stops for PeerTimeout is an incident whose
// cause names the frame; and a heartbeat leaves while a send's encode is
// blocked.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

const (
	// liveTimeout is the pair's PeerTimeout. The slow legs move one of
	// liveSlices slices every liveTimeout/4: 6 x liveTimeout in all.
	liveTimeout = 80 * time.Millisecond
	liveSlices  = 24
	// liveFrame is the payload the write legs send: 24 x 256 KiB, far
	// above the pair's socket buffers (128 KiB asked per buffer, which the
	// kernel doubles; buffers below loopback's 64 KiB segment would stall
	// the stream in TCP's silly-window avoidance instead).
	liveFrame = liveSlices * liveSlice
	liveSlice = 256 << 10
	liveTag   = 3
)

// stall is a payload whose encode blocks: it closes started, then waits
// for release.
type stall struct{ started, release chan struct{} }

// codecStall is a test-only id in this package's band.
const codecStall CodecID = 31

func init() {
	RegisterCodec(codecStall, stall{}, Codec{
		Encode: func(buf []byte, v any) ([]byte, error) {
			s := v.(stall)
			close(s.started)
			<-s.release
			return buf, nil
		},
		Decode: func([]byte) (any, error) { return stall{}, nil },
	})
}

// livePair attaches rank 0's link to rank 1 on one end of a loopback TCP
// connection with small socket buffers, and returns rank 0's world, the
// link, and the other end, which the test drives as rank 1. Reconnection
// is off, so an incident declares rank 1 lost at once, with its cause.
func livePair(t *testing.T, tun NetTuning) (*netWorld, *netPeer, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	far, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	near, err := ln.Accept()
	if err != nil {
		far.Close()
		t.Fatal(err)
	}
	for _, c := range []net.Conn{near, far} {
		c.(*net.TCPConn).SetReadBuffer(128 << 10)
		c.(*net.TCPConn).SetWriteBuffer(128 << 10)
	}
	tun.ReconnectAttempts = -1
	w := &netWorld{size: 2, box: newMailbox(), peers: make([]*netPeer, 2),
		tun: tun.normalized(), stopc: make(chan struct{})}
	p := &netPeer{conn: near}
	w.peers[1] = p
	w.attach(1, p)
	t.Cleanup(func() {
		far.Close()
		w.closeConns()
		w.readers.Wait()
	})
	return w, p, far
}

// livePayload is n bytes that differ from slice to slice.
func livePayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/liveSlice)
	}
	return b
}

// lostCause is how many incidents the link saw and the cause rank 1 was
// declared lost with (nil while the link is up).
func lostCause(w *netWorld) (uint64, error) {
	n := w.peersLost.Load()
	if n == 0 {
		return 0, nil
	}
	_, err := w.box.get(1, liveTag+1, liveTag+1) // no frame carries this tag
	return n, err
}

// TestNetLivenessFollowsBytes: a link fails only when no byte moves on it
// for PeerTimeout, whatever the frame's size, in either direction.
func TestNetLivenessFollowsBytes(t *testing.T) {
	t.Run("slow-frame-read", func(t *testing.T) {
		w, _, far := livePair(t, NetTuning{Heartbeat: time.Hour, PeerTimeout: liveTimeout})
		payload := livePayload(liveSlices << 10)
		frame := buildTestFrame(t, liveTag, int64(len(payload)), payload)
		go func() {
			for i := range liveSlices {
				far.Write(frame[i*len(frame)/liveSlices : (i+1)*len(frame)/liveSlices])
				time.Sleep(liveTimeout / 4)
			}
		}()
		start := time.Now()
		m, err := w.box.get(1, liveTag, liveTag)
		if err != nil {
			t.Fatalf("a frame fed in %d slices %v apart failed the link after %v: %v",
				liveSlices, liveTimeout/4, time.Since(start).Round(time.Millisecond), err)
		}
		if b, _ := m.Data.([]byte); !bytes.Equal(b, payload) {
			t.Errorf("delivered %d bytes, not the %d sent", len(b), len(payload))
		}
		if n, err := lostCause(w); n != 0 {
			t.Errorf("%d incidents: %v", n, err)
		}
	})

	t.Run("slow-frame-write", func(t *testing.T) {
		w, _, far := livePair(t, NetTuning{Heartbeat: -1, PeerTimeout: liveTimeout})
		payload := livePayload(liveFrame)
		wire := liveFrame + netFrameMeta + valueHdrLen + 4
		got := make(chan []byte, 1)
		go func() {
			// Rank 1 drains one slice every liveTimeout/4.
			b := make([]byte, wire)
			n := 0
			for n < wire {
				k, err := io.ReadFull(far, b[n:min(n+liveSlice, wire)])
				if n += k; err != nil {
					break
				}
				time.Sleep(liveTimeout / 4)
			}
			got <- b[:n]
		}()
		start := time.Now()
		w.send(&Comm{size: 2, w: w}, 1, liveTag, liveFrame, payload)
		if n, err := lostCause(w); n != 0 {
			t.Fatalf("a %d B frame drained in %d slices %v apart failed the link after %v: %v",
				wire, liveSlices, liveTimeout/4, time.Since(start).Round(time.Millisecond), err)
		}
		m, err := decodeTestFrame(<-got)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := m.Data.([]byte); !bytes.Equal(b, payload) {
			t.Errorf("rank 1 read %d bytes of payload, not the %d sent", len(b), len(payload))
		}
	})

	t.Run("read-stall", func(t *testing.T) {
		w, _, far := livePair(t, NetTuning{Heartbeat: time.Hour, PeerTimeout: liveTimeout})
		frame := buildTestFrame(t, liveTag, 4096, livePayload(4096))
		far.Write(frame[:len(frame)/2])
		start := time.Now()
		_, err := w.box.get(1, liveTag, liveTag)
		checkStall(t, err, len(frame), time.Since(start))
	})

	t.Run("write-stall", func(t *testing.T) {
		w, _, _ := livePair(t, NetTuning{Heartbeat: -1, PeerTimeout: liveTimeout})
		start := time.Now()
		w.send(&Comm{size: 2, w: w}, 1, liveTag, liveFrame, livePayload(liveFrame)) // rank 1 reads nothing
		_, err := lostCause(w)
		checkStall(t, err, liveFrame+netFrameMeta+valueHdrLen+4, time.Since(start))
	})
}

// checkStall holds a stalled stream's loss to the rule: rank 1 lost, no
// sooner than PeerTimeout, with a cause that names frame 1 and its size.
func checkStall(t *testing.T, err error, wire int, took time.Duration) {
	t.Helper()
	var ple *PeerLostError
	if !errors.As(err, &ple) || ple.Rank != 1 {
		t.Fatalf("stalled stream ended with %v, want a *PeerLostError for rank 1", err)
	}
	if want := fmt.Sprintf("frame 1 (%d B)", wire); !strings.Contains(err.Error(), want) {
		t.Errorf("loss cause %q does not name %q", err, want)
	}
	if took < liveTimeout {
		t.Errorf("declared lost after %v, before PeerTimeout %v", took, liveTimeout)
	}
}

// TestNetHeartbeatDuringEncode: a heartbeat leaves while a send's encode
// is blocked, so a long encode never silences the link.
func TestNetHeartbeatDuringEncode(t *testing.T) {
	w, p, far := livePair(t, NetTuning{Heartbeat: time.Nanosecond, PeerTimeout: time.Minute})
	s := stall{started: make(chan struct{}), release: make(chan struct{})}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		w.send(&Comm{size: 2, w: w}, 1, liveTag, 0, s)
	}()
	<-s.started
	beat := make(chan struct{})
	go func() {
		defer close(beat)
		w.flush(p, flushBeat)
	}()
	select {
	case <-beat:
	case <-time.After(10 * time.Second):
		close(s.release)
		t.Fatal("the heartbeat waited for a send's encode")
	}
	if n := w.hbSent.Load(); n != 1 {
		t.Errorf("heartbeats sent = %d, want 1", n)
	}
	close(s.release)
	<-sent
	br := bufio.NewReader(far)
	var scratch []byte
	for _, want := range []uint64{0, 1} { // the heartbeat, then the frame
		if _, seq, _, err := readFrame(br, &scratch); err != nil || seq != want {
			t.Fatalf("rank 1 read frame seq %d (%v), want %d", seq, err, want)
		}
	}
}
