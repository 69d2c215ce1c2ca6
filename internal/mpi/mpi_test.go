package mpi

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
)

// testCfg is a simple simulated machine: 100 MB/s NICs, no latency,
// 50 MB/s disk client channels, 400 MB/s aggregate PFS.
func testCfg() SimConfig {
	return SimConfig{
		OutBW: 100e6, InBW: 100e6, Latency: 0,
		DiskClientBW: 50e6, DiskAggBW: 400e6, SeekTime: 0,
	}
}

// text is a test payload that crosses every transport: []byte is the one
// builtin wire codec (the pipeline's payloads register their own), so a
// test that ships a string ships its bytes.
func text(s string) []byte { return []byte(s) }

// str is the string a text payload carries ("" for any other payload).
func str(m Message) string {
	b, _ := m.Data.([]byte)
	return string(b)
}

// word is text for an int64: its eight little-endian bytes.
func word(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

// wordOf is the int64 a word payload carries.
func wordOf(m Message) int64 { return int64(binary.LittleEndian.Uint64(m.Data.([]byte))) }

// runBoth (historical name) runs body on every transport: wall-clock
// goroutines, the discrete-event kernel, and loopback TCP.
func runBoth(t *testing.T, n int, body func(c *Comm)) {
	t.Helper()
	RunReal(n, body)
	RunSim(n, testCfg(), body)
	if _, err := RunNet(n, body); err != nil {
		t.Fatalf("RunNet: %v", err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, 10, text("hello"))
		case 1:
			m := c.Recv(0, 7)
			if str(m) != "hello" || m.Src != 0 || m.Tag != 7 {
				t.Errorf("bad message %+v", m)
			}
		}
	})
}

func TestRecvWildcards(t *testing.T) {
	runBoth(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 5, 1, text("from0"))
		case 1:
			c.Send(2, 9, 1, text("from1"))
		case 2:
			a := c.Recv(AnySource, 9)
			if a.Src != 1 {
				t.Errorf("tag-9 message from %d, want 1", a.Src)
			}
			b := c.Recv(AnySource, AnyTag)
			if b.Src != 0 {
				t.Errorf("remaining message from %d, want 0", b.Src)
			}
		}
	})
}

func TestTagMatchingHoldsOutOfOrder(t *testing.T) {
	runBoth(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, 1, text("first"))
			c.Send(1, 2, 1, text("second"))
		case 1:
			m2 := c.Recv(0, 2) // deliberately receive the later tag first
			m1 := c.Recv(0, 1)
			if str(m2) != "second" || str(m1) != "first" {
				t.Errorf("tag matching failed: %q %q", str(m1), str(m2))
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	var phase atomic.Int32
	RunReal(5, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if got := phase.Load(); got != 5 {
			t.Errorf("rank %d passed barrier with phase=%d, want 5", c.Rank(), got)
		}
	})
}

func TestBarrierSimTime(t *testing.T) {
	// A barrier after rank-dependent sleeps must release everyone at the
	// time of the slowest rank (plus negligible message time).
	var release [4]float64
	end := RunSim(4, testCfg(), func(c *Comm) {
		c.Compute(float64(c.Rank())) // rank r sleeps r seconds
		c.Barrier()
		release[c.Rank()] = c.Now()
	})
	for r, tt := range release {
		if tt < 3.0-1e-9 {
			t.Errorf("rank %d released at %v, before slowest rank entered", r, tt)
		}
	}
	if end > 3.1 {
		t.Errorf("barrier cost too high: end=%v", end)
	}
}

func TestSimTransferTime(t *testing.T) {
	// 100 MB over a 100 MB/s NIC pair = 1 s.
	end := RunSim(2, testCfg(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, 100e6, nil)
		case 1:
			c.Recv(0, 0)
		}
	})
	if math.Abs(end-1.0) > 1e-6 {
		t.Errorf("transfer finished at %v, want 1.0", end)
	}
}

func TestSimIOReadContention(t *testing.T) {
	// 8 ranks each read 50 MB: per-client cap 50 MB/s would allow 1 s each,
	// but the 400 MB/s aggregate is exactly saturated -> all finish at 1 s.
	// With 16 ranks the aggregate halves the per-client rate -> 2 s.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{8, 1.0}, {16, 2.0},
	} {
		end := RunSim(tc.n, testCfg(), func(c *Comm) {
			c.IORead(50e6, 0)
		})
		if math.Abs(end-tc.want) > 1e-6 {
			t.Errorf("n=%d: reads finished at %v, want %v", tc.n, end, tc.want)
		}
	}
}

func TestSimSeekCost(t *testing.T) {
	cfg := testCfg()
	cfg.SeekTime = 0.01
	end := RunSim(1, cfg, func(c *Comm) {
		c.IORead(0, 100) // pure seeks
	})
	if math.Abs(end-1.0) > 1e-6 {
		t.Errorf("100 seeks at 10ms took %v, want 1.0", end)
	}
}

func TestSimLatency(t *testing.T) {
	cfg := testCfg()
	cfg.Latency = 0.5
	end := RunSim(2, cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, 0, nil)
		case 1:
			c.Recv(0, 0)
		}
	})
	if math.Abs(end-0.5) > 1e-6 {
		t.Errorf("zero-byte send with 0.5s latency took %v", end)
	}
}

func TestStatsAccounting(t *testing.T) {
	_, comms := RunSimStats(2, testCfg(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, 1000, nil)
			c.IORead(5000, 3)
		case 1:
			c.Recv(0, 0)
		}
	})
	if comms[0].BytesSent != 1000 || comms[0].MsgsSent != 1 {
		t.Errorf("rank0 send stats: %d bytes, %d msgs", comms[0].BytesSent, comms[0].MsgsSent)
	}
	if comms[1].BytesRecv != 1000 || comms[1].MsgsRecv != 1 {
		t.Errorf("rank1 recv stats: %d bytes, %d msgs", comms[1].BytesRecv, comms[1].MsgsRecv)
	}
}

func TestSelfSend(t *testing.T) {
	runBoth(t, 1, func(c *Comm) {
		c.Send(0, 4, 8, text("me"))
		m := c.Recv(0, 4)
		if str(m) != "me" {
			t.Errorf("self-send failed: %q", str(m))
		}
	})
}

func TestBadRankPanics(t *testing.T) {
	RunReal(1, func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("Send to out-of-range rank did not panic")
			}
		}()
		c.Send(5, 0, 0, nil)
	})
}

func TestSubCommunicator(t *testing.T) {
	// World of 6; two disjoint subcomms {0,2,4} and {1,3,5} run a barrier
	// and a same-tag wildcard gather concurrently without crosstalk.
	runBoth(t, 6, func(c *Comm) {
		members := []int{0, 2, 4}
		id := 0
		if c.Rank()%2 == 1 {
			members = []int{1, 3, 5}
			id = 1
		}
		sc := c.Sub(members, id)
		if sc.Size() != 3 {
			t.Errorf("sub size = %d", sc.Size())
		}
		sc.Barrier()
		if sc.Rank() != 0 {
			sc.Send(0, 7, 8, word(int64(c.Rank())))
		} else {
			sum := int64(c.Rank())
			for i := 1; i < sc.Size(); i++ {
				sum += wordOf(sc.Recv(AnySource, 7))
			}
			want := int64(0 + 2 + 4)
			if c.Rank()%2 == 1 {
				want = 1 + 3 + 5
			}
			if sum != want {
				t.Errorf("world rank %d: sub sum = %v, want %d", c.Rank(), sum, want)
			}
		}
		// Point-to-point with local ranks and Src mapping.
		if sc.Rank() == 0 {
			sc.Send(1, 5, 4, text("hi"))
		} else if sc.Rank() == 1 {
			m := sc.Recv(0, 5)
			if m.Src != 0 || str(m) != "hi" {
				t.Errorf("sub recv = %+v", m)
			}
		}
	})
}

func TestSubRequiresMembership(t *testing.T) {
	RunReal(2, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("Sub without membership did not panic")
			}
		}()
		c.Sub([]int{1}, 0)
	})
}
