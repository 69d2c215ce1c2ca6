package mpiio

// Wire codecs for the collective-read payloads, so the two-phase shuffle
// and its epoch-boundary metadata exchange run unchanged over the
// network transport (mpi.RunNet / mpi.Join).
//
// Ownership across the wire follows docs/ownership.md "Serialization
// boundary":
//
//   - A *pieceBatch is the sender's collective staging: Send completes
//     synchronously after encoding, so once encoded the batch is no longer
//     out, as if a local receiver had released it. It decodes into a batch
//     from this process's netBatches pool whose pieces alias the batch's
//     own copy of the bytes; ReadAllInto releases it after assembling, so
//     the steady-state shuffle stays allocation-free on both sides.
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

// netBatches is the receive-side pool for net-decoded piece batches.
var netBatches pool.Pool[pieceBatch]

func init() {
	mpi.RegisterCodec(codecMetaPld, (*metaPayload)(nil), mpi.Codec{Encode: encodeMetaPayload, Decode: decodeMetaPayload})
	mpi.RegisterCodec(codecMetaTable, (*metaTable)(nil), mpi.Codec{Encode: encodeMetaTable, Decode: decodeMetaTable})
	mpi.RegisterCodec(codecPieceBatch, (*pieceBatch)(nil), mpi.Codec{Encode: encodePieceBatch, Decode: decodePieceBatch})
}

// encodeMetaPayload ships the rank's view segments. The struct is the
// sender's reusable scratch; Send completes synchronously after encoding,
// so nothing is released here.
func encodeMetaPayload(buf []byte, v any) ([]byte, error) {
	return appendSegments(buf, v.(*metaPayload).segs), nil
}

func decodeMetaPayload(r mpi.WireReader) (any, error) {
	segs, _ := readSegments(&r) // Done reports the reader's sticky error
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &metaPayload{segs: segs}, nil
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

func decodeMetaTable(r mpi.WireReader) (any, error) {
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
	b.out.Store(false)
	return buf, nil
}

// decodePieceBatch copies the pieces into one packed slab of a pooled
// batch; ReadAllInto's release recycles it for the next decode. The slab
// is reserved at the payload's whole size first, so appending a piece
// never moves the bytes the earlier pieces alias.
func decodePieceBatch(r mpi.WireReader) (any, error) {
	b := netBatches.Get()
	b.decoded = true
	b.ps = b.ps[:0]
	b.data = pool.Grow(b.data, r.Remaining())
	packed := b.data[:0]
	n := r.Len(12)
	for i := 0; i < n; i++ {
		off := r.I64()
		start := len(packed)
		packed = r.AppendBytes(packed, int(r.U32()))
		b.ps = append(b.ps, piece{Off: off, Data: packed[start:len(packed):len(packed)]})
	}
	if err := r.Done(); err != nil {
		b.release()
		return nil, fmt.Errorf("mpiio: piece batch: %w", err)
	}
	return b, nil
}
