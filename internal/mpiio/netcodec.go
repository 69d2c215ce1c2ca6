package mpiio

// Wire codecs for the collective-read payloads, so the two-phase shuffle
// and its epoch-boundary metadata exchange run unchanged over the
// network transport (mpi.RunNet / mpi.Join).
//
// Ownership across the wire follows docs/ownership.md "Serialization
// boundary":
//
//   - A *pieceBatch is encoded and then released on the sender — the
//     transport is the sending side's consumer, dropping the epoch
//     reference the shuffle added for it — and decoded into a
//     receiver-owned batch whose pieces alias a pooled epoch buffer from
//     this process's netCollScratch, so the receiver's usual release
//     recycles it and the steady-state shuffle stays allocation-free on
//     both sides.
//   - Metadata payloads (*metaPayload, *metaTable) are retained by the
//     receiver for the rest of the round with no release signal, so they
//     decode into fresh allocations; they are a few dozen bytes per rank
//     and per round.

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/pool"
)

// Codec IDs 32–47 are reserved for internal/mpiio (see internal/mpi/codec.go).
// 32 and 35 carried the per-call collective's bare []Segment and []piece
// payloads; they stay reserved so an old peer's frame can never decode as
// something else.
const (
	codecMetaPld    mpi.CodecID = 33
	codecMetaTable  mpi.CodecID = 34
	codecPieceBatch mpi.CodecID = 36
)

// netCollScratch hosts the epochs backing net-decoded piece batches: each
// decoded batch gets a single-batch epoch whose packed buffer holds the
// copied piece bytes, and the receiver's release returns it here for the
// next decode to reuse.
var netCollScratch CollectiveScratch

func init() {
	mpi.RegisterCodec(codecMetaPld, (*metaPayload)(nil), mpi.Codec{
		Encode: func(buf []byte, v any) ([]byte, error) {
			// The struct is the sender's reusable scratch; Send completes
			// synchronously after encoding, so nothing is released here.
			return appendSegments(buf, v.(*metaPayload).segs), nil
		},
		Decode: func(wire []byte) (any, error) {
			r := mpi.NewWireReader(wire)
			segs, _ := readSegments(&r) // Done reports the reader's sticky error
			if err := r.Done(); err != nil {
				return nil, err
			}
			return &metaPayload{segs: segs}, nil
		},
	})
	mpi.RegisterCodec(codecMetaTable, (*metaTable)(nil), mpi.Codec{Encode: encodeMetaTable, Decode: decodeMetaTable})
	mpi.RegisterCodec(codecPieceBatch, (*pieceBatch)(nil), mpi.Codec{Encode: encodePieceBatch, Decode: decodePieceBatch})
}

func appendSegments(buf []byte, segs []Segment) []byte {
	buf = mpi.AppendU32(buf, uint32(len(segs)))
	for _, sg := range segs {
		buf = mpi.AppendU64(buf, uint64(sg.Off))
		buf = mpi.AppendU64(buf, uint64(sg.Len))
	}
	return buf
}

func readSegments(r *mpi.WireReader) ([]Segment, error) {
	n := r.Len(16)
	segs := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		segs = append(segs, Segment{Off: r.I64(), Len: r.I64()})
	}
	return segs, r.Err()
}

func encodeMetaTable(buf []byte, v any) ([]byte, error) {
	all := v.(*metaTable).all
	buf = mpi.AppendU32(buf, uint32(len(all)))
	for _, segs := range all {
		buf = appendSegments(buf, segs)
	}
	return buf, nil
}

func decodeMetaTable(wire []byte) (any, error) {
	r := mpi.NewWireReader(wire)
	n := r.Len(4)
	t := &metaTable{all: make([][]Segment, n)}
	for i := 0; i < n; i++ {
		segs, err := readSegments(&r)
		if err != nil {
			return nil, err
		}
		t.all[i] = segs
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

func appendPieces(buf []byte, ps []piece) []byte {
	buf = mpi.AppendU32(buf, uint32(len(ps)))
	for _, pc := range ps {
		buf = mpi.AppendU64(buf, uint64(pc.Off))
		buf = mpi.AppendU32(buf, uint32(len(pc.Data)))
		buf = append(buf, pc.Data...)
	}
	return buf
}

func encodePieceBatch(buf []byte, v any) ([]byte, error) {
	b := v.(*pieceBatch)
	buf = appendPieces(buf, b.ps)
	// The transport is this batch's consumer on the sending side: drop
	// the epoch reference the shuffle added for it, exactly as the
	// receiving rank's release would have under an in-process transport.
	b.release()
	return buf, nil
}

func decodePieceBatch(wire []byte) (any, error) {
	// First pass sizes the packed slab (piece data must not alias the
	// reused wire buffer), validating as it goes.
	sizer := mpi.NewWireReader(wire)
	n := sizer.Len(12)
	total := 0
	for i := 0; i < n; i++ {
		sizer.I64()
		total += len(sizer.Bytes(int(sizer.U32())))
	}
	if err := sizer.Done(); err != nil {
		return nil, fmt.Errorf("mpiio: piece batch: %w", err)
	}
	// Second pass copies the pieces into a pooled single-batch epoch;
	// the receiver's usual release recycles it for the next decode.
	ep := netCollScratch.acquireEpoch(1)
	b := &ep.batches[0]
	ep.packed = pool.Grow(ep.packed, total)
	packed := ep.packed[:0]
	r := mpi.NewWireReader(wire)
	r.Len(12)
	for i := 0; i < n; i++ {
		off := r.I64()
		data := r.Bytes(int(r.U32()))
		start := len(packed)
		packed = append(packed, data...)
		b.ps = append(b.ps, piece{Off: off, Data: packed[start:len(packed):len(packed)]})
	}
	return b, nil
}
