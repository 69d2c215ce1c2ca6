package compositor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pool"
)

// sameBits reports whether a and b hold the same size and pixel bits.
func sameBits(a, b *img.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			return false
		}
	}
	return true
}

// scribble overwrites wire, as the transport does when it reuses a frame
// buffer for the next frame.
func scribble(wire []byte) {
	for i := range wire {
		wire[i] = 0xAA
	}
}

// TestWirePayloadCodecRoundTrip: raw and run-length subfragments, a
// negative origin and an empty raw image survive encode -> decode, the
// decoded payload owns its bytes (the wire can be overwritten), and
// encoding released the sender's payload to its pool.
func TestWirePayloadCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw, sparse := randImage(rng, 7, 3, 0.6), randImage(rng, 9, 4, 0.3)
	rle := EncodeRLEInto(nil, sparse)
	var sendPool pool.Pool[wirePayload]
	src := getPayload(&sendPool)
	*src.add() = subFragment{X0: -2, Y0: 5, W: 7, H: 3, VisRank: 1, Raw: raw}
	*src.add() = subFragment{X0: 4, Y0: 0, W: 9, H: 4, VisRank: 2, compressed: true, RLE: bytes.Clone(rle)}
	*src.add() = subFragment{X0: 0, Y0: 8, W: 0, H: 0, VisRank: 3, Raw: img.New(0, 0)}
	want := append([]subFragment(nil), src.subs...)
	wire, err := encodeWirePayload(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if sendPool.Get() != src {
		t.Error("encoding did not release the payload to its pool")
	}
	v, err := decodeWirePayload(mpi.NewWireReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	got := v.(*wirePayload)
	defer got.Release()
	if got.owner != &netPayloads || len(got.subs) != len(want) {
		t.Fatalf("decoded %d subfragments owned by %p, want %d from the receive pool", len(got.subs), got.owner, len(want))
	}
	for i, g := range got.subs {
		w := want[i]
		if g.X0 != w.X0 || g.Y0 != w.Y0 || g.W != w.W || g.H != w.H || g.VisRank != w.VisRank || g.compressed != w.compressed {
			t.Errorf("subfragment %d decoded as %+v, encoded %+v", i, g, w)
		}
		if w.compressed && !bytes.Equal(g.RLE, rle) {
			t.Errorf("subfragment %d: stream differs after the wire was overwritten", i)
		}
		if !w.compressed && !sameBits(g.Raw, w.Raw) {
			t.Errorf("subfragment %d: pixels differ after the wire was overwritten", i)
		}
	}
}

// TestSwapPayloadCodecRoundTrip: a binary-swap half crosses as exact bits
// into a payload from the receive pool that owns its pixels.
func TestSwapPayloadCodecRoundTrip(t *testing.T) {
	want := randImage(rand.New(rand.NewSource(6)), 5, 6, 0.8)
	want.Pix[3] = float32(math.Copysign(0, -1))
	var sendPool pool.Pool[swapPayload]
	src := getSwap(&sendPool, want.W, want.H)
	copy(src.img.Pix, want.Pix)
	wire, err := encodeSwapPayload(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if sendPool.Get() != src {
		t.Error("encoding did not release the payload to its pool")
	}
	v, err := decodeSwapPayload(mpi.NewWireReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	got := v.(*swapPayload)
	defer got.Release()
	if got.owner != &netSwaps || !sameBits(&got.img, want) {
		t.Errorf("decoded %dx%d owned by %p: not the encoded image from the receive pool", got.img.W, got.img.H, got.owner)
	}
}
