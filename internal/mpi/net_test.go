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
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// buildTestFrame encodes one data frame (seq 1, ack 0) exactly the way
// netWorld.send does.
func buildTestFrame(t testing.TB, tag int, nbytes int64, data any) []byte {
	t.Helper()
	buf, err := appendFrame(nil, 1, uint64(tag), uint64(nbytes), data)
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
	for _, v := range []any{nil, []byte{}, []byte{1, 2, 3}, text("hello"), make([]byte, 1<<16)} {
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
	valid := buildTestFrame(t, 3, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
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
		"value length":   nil,
	}
	// Body longer than the value it carries: one stray byte after the
	// value, covered by the frame length, must be rejected.
	f0 := append(buildTestFrame(t, 3, 8, text("x")), 0xee)
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
	// A retired builtin codec id (1–7 and 9–13: the scalar and slice
	// builtins no caller shipped) is reserved, not reusable: a frame naming
	// one is refused as an unknown codec, whatever its payload.
	for id := uint16(1); id <= 13; id++ {
		if id == uint16(codecBytes) {
			continue
		}
		f = append([]byte{}, valid...)
		binary.LittleEndian.PutUint16(f[4+netFrameMeta:], id)
		cases[fmt.Sprintf("retired codec %d", id)] = f
	}
	// Value length prefix larger than the remaining payload.
	f = buildTestFrame(t, 3, 8, text("abcd"))
	binary.LittleEndian.PutUint32(f[4+netFrameMeta+2:], 1<<20)
	cases["value length"] = f
	for name, frame := range cases {
		if frame == nil {
			t.Fatalf("case %q not constructed", name)
		}
		_, err := decodeTestFrame(frame)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if strings.HasPrefix(name, "retired codec") && !strings.Contains(err.Error(), "unknown codec id") {
			t.Errorf("%s: refused with %v, want an unknown codec", name, err)
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
// committed seeds cover valid frames for the builtin codec and for a nil
// payload plus the hostile classes from TestNetHostileFrames.
func FuzzNetFrameDecode(f *testing.F) {
	valid := buildTestFrame(f, 5, 16, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(valid)
	f.Add(buildTestFrame(f, 1, 4, text("seed")))
	f.Add(buildTestFrame(f, 2, 8, []byte{}))
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

// hsBytes is one handshake message exactly as writeHandshake sends it.
func hsBytes(t testing.TB, h handshake) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeHandshake(&b, h); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzHandshake: arbitrary bytes through the one bootstrap reader, as a
// peer of a fuzzHSRanks-rank job would receive them, must give an error or
// a message — never a panic — and a message must re-encode to exactly the
// bytes it was read from. The reader must never allocate more than it
// received, beyond a fixed allowance: the copy of each address it builds
// its string from, one address bound (an address's bytes are allocated
// once its length has arrived), the address table the job's size
// dictates, and the header. The committed seeds are one message of every
// kind and each hostile class, each checked for its verdict first.
func FuzzHandshake(f *testing.F) {
	const fuzzHSRanks = 4
	reg := handshake{kind: hsRegister, rank: 1, addrs: []string{"127.0.0.1:4242"}}
	table := handshake{kind: hsTable, addrs: []string{"", "127.0.0.1:1", "127.0.0.1:2", ""}}
	patch := func(b []byte, at int, v ...byte) []byte {
		b = append([]byte(nil), b...)
		copy(b[at:], v)
		return b
	}
	regB, tableB := hsBytes(f, reg), hsBytes(f, table)
	for _, seed := range []struct {
		name  string
		b     []byte
		valid bool
	}{
		{"register", regB, true},
		{"hello", hsBytes(f, handshake{kind: hsHello, rank: 3}), true},
		{"table", tableB, true},
		{"reattach", hsBytes(f, handshake{kind: hsReattach, rank: 2, seq: 77}), true},
		{"reattach-ok", hsBytes(f, handshake{kind: hsReattachOK, rank: 1, seq: 1 << 40}), true},
		{"bad magic", patch(regB, 0, 0), false},
		{"unknown kind", patch(regB, 4, 9), false},
		{"rank out of range", patch(regB, 5, fuzzHSRanks), false},
		{"negative rank", patch(regB, 5, 0xff, 0xff, 0xff, 0xff), false},
		{"count over its bound", patch(tableB, 17, fuzzHSRanks+1), false},
		{"count at the u32 limit", patch(tableB, 17, 0xff, 0xff, 0xff, 0xff), false},
		{"address length over its bound", patch(regB, hsHeaderLen, 0x01, 0x04), false}, // 1025
		{"truncated", tableB[:len(tableB)-5], false},
	} {
		_, err := readHandshake(bytes.NewReader(seed.b), fuzzHSRanks)
		if (err == nil) != seed.valid {
			f.Errorf("%s: err = %v, want valid %v", seed.name, err, seed.valid)
		}
		f.Add(seed.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		if h, err := readHandshake(r, fuzzHSRanks); err == nil {
			if got, read := hsBytes(t, h), b[:len(b)-r.Len()]; !bytes.Equal(got, read) {
				t.Errorf("message %+v re-encodes to %x, was read from %x", h, got, read)
			}
		}
		if raceEnabled {
			return // the race runtime's own allocations would count
		}
		// The byte count is process-wide, so another goroutine (the fuzz
		// engine's) can add to one reading: a reader that over-allocates
		// does so every time, so the least of three readings decides.
		grew := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 3 {
			r := bytes.NewReader(b)
			runtime.ReadMemStats(&before)
			readHandshake(r, fuzzHSRanks)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if allowance := 2*len(b) + maxNetAddrLen + 16*fuzzHSRanks + 512; grew > uint64(allowance) {
			t.Errorf("reading %d bytes allocated %d, allowance %d", len(b), grew, allowance)
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
