package mpiio

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/mpi"
)

// scribble overwrites wire, as the transport does when it reuses a frame
// buffer for the next frame.
func scribble(wire []byte) {
	for i := range wire {
		wire[i] = 0xAA
	}
}

// TestMetaCodecsRoundTrip: a rank's segments and the broadcast table,
// empty rows included, survive encode -> decode and owe nothing to the
// wire, which is overwritten before they are checked.
func TestMetaCodecsRoundTrip(t *testing.T) {
	segs := []Segment{{0, 40}, {96, 8}, {1 << 40, 1}}
	wire, err := encodeMetaPayload(nil, &metaPayload{segs: segs})
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeMetaPayload(mpi.NewWireReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	if got := v.(*metaPayload).segs; !slices.Equal(got, segs) {
		t.Errorf("metaPayload decoded %v, encoded %v", got, segs)
	}

	all := [][]Segment{segs, nil, {{7, 3}}}
	wire, err = encodeMetaTable(nil, &metaTable{all: all})
	if err != nil {
		t.Fatal(err)
	}
	v, err = decodeMetaTable(mpi.NewWireReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	got := v.(*metaTable).all
	if len(got) != len(all) {
		t.Fatalf("metaTable decoded %d rows, encoded %d", len(got), len(all))
	}
	for i := range all {
		if !slices.Equal(got[i], all[i]) {
			t.Errorf("metaTable row %d decoded %v, encoded %v", i, got[i], all[i])
		}
	}
}

// TestPieceBatchCodecRoundTrip: a shuffle batch, an empty piece included,
// decodes into a batch from the receive pool whose pieces own their bytes;
// encoding marked the sender's batch no longer out.
func TestPieceBatchCodecRoundTrip(t *testing.T) {
	want := []piece{{Off: 0, Data: []byte{1, 2, 3}}, {Off: 64, Data: nil}, {Off: 1 << 33, Data: bytes.Repeat([]byte{9, 8}, 300)}}
	src := &pieceBatch{ps: want}
	src.out.Store(true)
	wire, err := encodePieceBatch(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if src.out.Load() {
		t.Error("encoding left the sender's batch out")
	}
	v, err := decodePieceBatch(mpi.NewWireReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	got := v.(*pieceBatch)
	defer got.release()
	if !got.decoded || len(got.ps) != len(want) {
		t.Fatalf("decoded %d pieces (from the receive pool: %v), encoded %d", len(got.ps), got.decoded, len(want))
	}
	for i, pc := range got.ps {
		if pc.Off != want[i].Off || !bytes.Equal(pc.Data, want[i].Data) {
			t.Errorf("piece %d decoded at %d with %d bytes, encoded at %d with %d", i, pc.Off, len(pc.Data), want[i].Off, len(want[i].Data))
		}
	}
}
