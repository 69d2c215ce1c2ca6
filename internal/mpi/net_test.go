package mpi

// Wire-level tests for the network transport: hostile and truncated
// frames must surface as errors (never panics, never huge allocations),
// the fuzz target hammers the same property, and the round-trip benchmark
// times the loopback path quakebench tracks as mpi.net_roundtrip_us
// (bench/README.md).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// buildTestFrame encodes one data frame (seq 1, ack 0) exactly the way
// netWorld.send does.
func buildTestFrame(t testing.TB, tag int, nbytes int64, data any) []byte {
	t.Helper()
	buf, err := appendFrame(nil, 1, 0, uint64(tag), uint64(nbytes), data)
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	return buf
}

// decodeTestFrame runs one frame (or garbage) through the reader path.
func decodeTestFrame(b []byte) (Message, error) {
	var scratch []byte
	m, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), &scratch)
	return m, err
}

func TestNetFrameRoundTrip(t *testing.T) {
	for _, v := range []any{
		nil, true, int(-7), int32(9), int64(-1 << 40), float32(1.5), 2.25,
		"hello", []byte{1, 2, 3}, []int32{4, 5}, []int64{-6},
		[]float32{0.5, -0.5}, []float64{3.25}, []any{int(1), "x", []byte{2}},
	} {
		frame := buildTestFrame(t, 17, 42, v)
		m, err := decodeTestFrame(frame)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if m.Tag != 17 || m.Bytes != 42 {
			t.Fatalf("%T: envelope %d/%d, want 17/42", v, m.Tag, m.Bytes)
		}
		want := buildTestFrame(t, 17, 42, m.Data)
		if !bytes.Equal(frame, want) {
			t.Errorf("%T: decoded value re-encodes differently", v)
		}
	}
}

// TestNetHostileFrames: every malformed input class returns an error —
// never a panic — from the frame reader.
func TestNetHostileFrames(t *testing.T) {
	valid := buildTestFrame(t, 3, 8, []float32{1, 2})
	cases := map[string][]byte{
		"empty":        {},
		"short header": {1, 2},
		"zero length":  {0, 0, 0, 0},
		"tiny length":  {5, 0, 0, 0, 1, 2, 3, 4, 5},
		"huge length": binary.LittleEndian.AppendUint32(nil,
			uint32(maxNetFrame+1)),
		"truncated body": valid[:len(valid)-3],
		"trailing bytes": nil, // filled below
		"unknown codec":  nil,
		"tag overflow":   nil,
		"bytes overflow": nil,
		"nested garbage": nil,
		"value length":   nil,
	}
	// Body longer than the value it carries: one stray byte after the
	// value, covered by the frame length, must be rejected.
	f0 := append(buildTestFrame(t, 3, 8, "x"), 0xee)
	binary.LittleEndian.PutUint32(f0, uint32(len(f0)-4))
	cases["trailing bytes"] = f0
	// Unknown codec id 0x7fff in an otherwise well-formed frame.
	f := append([]byte{}, valid...)
	binary.LittleEndian.PutUint16(f[4+netFrameMeta:], 0x7fff)
	cases["unknown codec"] = f
	// Envelope tag above maxTag (tag is the third u64 of the body, after
	// seq and ack).
	f = append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(f[20:], 1<<63)
	cases["tag overflow"] = f
	// Envelope byte count above the sanity bound.
	f = append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(f[28:], 1<<63)
	cases["bytes overflow"] = f
	// []any whose element is truncated mid-header.
	f = buildTestFrame(t, 3, 8, []any{"ok"})
	cases["nested garbage"] = f[:len(f)-4]
	// Value length prefix larger than the remaining payload.
	f = buildTestFrame(t, 3, 8, "abcd")
	binary.LittleEndian.PutUint32(f[4+netFrameMeta+2:], 1<<20)
	cases["value length"] = f
	for name, frame := range cases {
		if frame == nil {
			t.Fatalf("case %q not constructed", name)
		}
		if _, err := decodeTestFrame(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestWireReaderHostileCount: a count prefix claiming more elements than
// the remaining bytes could possibly hold must latch the reader's error
// and return zero — before any allocation sized by the count.
func TestWireReaderHostileCount(t *testing.T) {
	wire := binary.LittleEndian.AppendUint32(nil, 1<<30)
	wire = append(wire, 1, 2, 3, 4, 5, 6, 7, 8)
	r := NewWireReader(wire)
	if n := r.Len(4); n != 0 {
		t.Errorf("Len = %d for hostile count, want 0", n)
	}
	if r.Err() == nil {
		t.Error("hostile element count accepted")
	}
	// Sticky error: later reads return zero values, Done reports it.
	if got := r.U64(); got != 0 {
		t.Errorf("read after latched error = %d, want 0", got)
	}
	if r.Done() == nil {
		t.Error("Done() cleared a latched error")
	}
}

// TestAppendFloat32sReservesOnce: the bytes are the per-element encoding's
// and land after what the buffer already held; a cold buffer grows by one
// allocation for the whole slice (a 1 MB strip appended four bytes at a
// time regrew the resend ring's cold slots some twenty times over), a warm
// one by none; and Float32s reads the same bit patterns back.
func TestAppendFloat32sReservesOnce(t *testing.T) {
	vals := make([]float32, 1<<16)
	for i := range vals {
		vals[i] = math.Float32frombits(uint32(i) * 2654435761) // every class of float, NaNs included
	}
	want := []byte("hdr")
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
	}
	got := AppendFloat32s([]byte("hdr"), vals)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendFloat32s bytes differ from the per-element encoding")
	}
	r := NewWireReader(got[3:])
	back := r.Float32s(nil, len(vals))
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float32bits(back[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("value %d read back as %#x, sent %#x", i, math.Float32bits(back[i]), math.Float32bits(vals[i]))
		}
	}
	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	if avg := testing.AllocsPerRun(10, func() { got = AppendFloat32s(nil, vals) }); avg != 1 {
		t.Errorf("appending %d floats to a cold buffer allocates %v times, want 1", len(vals), avg)
	}
	if avg := testing.AllocsPerRun(10, func() { got = AppendFloat32s(got[:0], vals) }); avg != 0 {
		t.Errorf("appending to a warm buffer allocates %v times, want 0", avg)
	}
}

// TestNetTruncatedStreamBoundsScratch: a hostile length prefix on a
// stream that then dries up must fail with a truncation error after
// allocating at most one growth chunk, not the full claimed frame.
func TestNetTruncatedStreamBoundsScratch(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, maxNetFrame)
	body := make([]byte, 100) // far less than the claimed 1 GiB
	var scratch []byte
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(append(hdr, body...))), &scratch)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation error", err)
	}
	if cap(scratch) > 2<<20 {
		t.Errorf("scratch grew to %d bytes for a 100-byte stream", cap(scratch))
	}
}

// FuzzNetFrameDecode: arbitrary bytes through the frame reader must
// error or decode cleanly — never panic, never read out of bounds. The
// committed seeds cover a valid frame for every builtin codec plus the
// hostile classes from TestNetHostileFrames.
func FuzzNetFrameDecode(f *testing.F) {
	valid := buildTestFrame(f, 5, 16, []float32{1, 2, 3})
	f.Add(valid)
	f.Add(buildTestFrame(f, 1, 4, "seed"))
	f.Add(buildTestFrame(f, 2, 8, []any{int64(1), []byte{2, 3}}))
	f.Add(buildTestFrame(f, 0, 0, nil))
	f.Add(valid[:len(valid)-5])                                   // truncated body
	f.Add(binary.LittleEndian.AppendUint32(nil, maxNetFrame))     // hostile length, empty stream
	f.Add(binary.LittleEndian.AppendUint32(nil, uint32(1<<31-1))) // length above the cap
	hostile := append([]byte{}, valid...)
	binary.LittleEndian.PutUint16(hostile[4+netFrameMeta:], 0x7fff) // unknown codec id
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		br := bufio.NewReader(bytes.NewReader(b))
		var scratch []byte
		for {
			if _, _, _, err := readFrame(br, &scratch); err != nil {
				break
			}
		}
	})
}

// BenchmarkNetRoundTrip measures a warm two-rank loopback ping-pong of a
// 64 KiB []byte through the full TCP stack: frame encode, socket write,
// reader goroutine, frame decode, mailbox. The tracked number is
// quakebench's mpi.net_roundtrip_us (bench/README.md).
func BenchmarkNetRoundTrip(b *testing.B) {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(int64(len(payload)) * 2) // one round trip moves it twice
	if _, err := RunNet(2, func(c *Comm) {
		const tag = 11
		n := int64(len(payload))
		if c.Rank() == 0 {
			// Warm the connections and scratch before timing.
			c.Send(1, tag, n, payload)
			c.Recv(1, tag)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Send(1, tag, n, payload)
				c.Recv(1, tag)
			}
			b.StopTimer()
		} else {
			for i := 0; i < b.N+1; i++ {
				m := c.Recv(0, tag)
				c.Send(0, tag, m.Bytes, m.Data)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}
