package mpi

import (
	"bytes"
	"math"
	"testing"
)

// scribble overwrites b, as the transport does when it reuses a frame
// buffer for the next frame.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xAA
	}
}

// TestWireReaderCopiesOut: what AppendBytes and Float32s return survives
// the source buffer being overwritten, whether dst starts empty or holds
// bytes already, so no decoded payload can alias the frame buffer. An
// AppendBytes past Remaining latches the error and leaves dst as it was,
// without growing it.
func TestWireReaderCopiesOut(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	src = AppendFloat32s(src, []float32{1.5, float32(math.Inf(-1))})
	wire := bytes.Clone(src)
	r := NewWireReader(wire)
	fresh := r.AppendBytes(nil, 3)
	held := r.AppendBytes([]byte("hdr"), 5)
	floats := r.Float32s(nil, 2)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	if !bytes.Equal(fresh, src[:3]) {
		t.Errorf("AppendBytes onto nil reads %v after the source was overwritten, want %v", fresh, src[:3])
	}
	if want := append([]byte("hdr"), src[3:8]...); !bytes.Equal(held, want) {
		t.Errorf("AppendBytes onto a prefix reads %v after the source was overwritten, want %v", held, want)
	}
	if floats[0] != 1.5 || !math.IsInf(float64(floats[1]), -1) {
		t.Errorf("Float32s reads %v after the source was overwritten, want [1.5 -Inf]", floats)
	}

	r = NewWireReader([]byte{1, 2, 3})
	dst := make([]byte, 2, 4)
	got := r.AppendBytes(dst, 4)
	if r.Err() == nil {
		t.Error("AppendBytes past Remaining latched no error")
	}
	if len(got) != 2 || cap(got) != 4 || &got[:1][0] != &dst[:1][0] {
		t.Errorf("AppendBytes past Remaining returned len %d cap %d, want dst unchanged (len 2, cap 4)", len(got), cap(got))
	}
	if got := r.AppendBytes(nil, 1); got != nil {
		t.Errorf("AppendBytes after a latched error returned %v, want nil", got)
	}
}

// TestBytesCodecRoundTrip: the builtin []byte codec delivers a copy; the
// frame it came from can be overwritten without changing it.
func TestBytesCodecRoundTrip(t *testing.T) {
	for _, sent := range [][]byte{nil, {}, {7}, bytes.Repeat([]byte{1, 2, 3}, 1000)} {
		wire, err := appendValue(nil, sent)
		if err != nil {
			t.Fatal(err)
		}
		v, rest, err := readValue(wire)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%d bytes: decode error %v, %d bytes left", len(sent), err, len(rest))
		}
		scribble(wire)
		if got := v.([]byte); !bytes.Equal(got, sent) {
			t.Errorf("%d bytes: decoded %d bytes that differ after the frame was overwritten", len(sent), len(got))
		}
	}
}
