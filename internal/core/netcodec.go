package core

// Wire codecs for the pipeline's data-plane payloads, so the real
// workload runs unchanged over the network transport (mpi.RunNet /
// mpi.Join).
//
// Ownership across the wire (docs/ownership.md "Serialization
// boundary"): encoding releases the sender-pooled payload — the
// transport is the sending side's consumer, exactly the signal the
// sender's pool needs — and decoding draws a payload from this process's
// receive pools, stamping the owner so the consuming rank's usual
// release (Render for data pieces, Assemble for strips and the LIC
// underlay) recycles it locally. Both sides therefore stay
// allocation-free at steady state, and pixel/value bytes cross as exact
// bit patterns, keeping frames bit-identical to RunReal: a float32 as its
// four little-endian IEEE-754 bytes — and a compressed strip (stripPayload)
// as the run-length stream the renderer built, which holds every lit pixel
// as those same sixteen bytes and is moved, never re-encoded, so what
// crosses is also exactly the size the sender declared.

import (
	"fmt"

	"repro/internal/compositor"
	"repro/internal/mpi"
	"repro/internal/pool"
)

// Codec IDs 64–95 are reserved for internal/core (see
// internal/mpi/codec.go).
const (
	codecDataPayload  mpi.CodecID = 64
	codecStripPayload mpi.CodecID = 65
	codecLICPayload   mpi.CodecID = 66
	codecMagPayload   mpi.CodecID = 67
)

// Receive-side pools for net-decoded payloads.
var (
	netData   pool.Pool[dataPayload]
	netStrips pool.Pool[stripPayload]
	netLICs   pool.Pool[licPayload]
	netMags   pool.Pool[magPayload]
)

func init() {
	mpi.RegisterCodec(codecDataPayload, (*dataPayload)(nil), mpi.Codec{Encode: encodeDataPayload, Decode: decodeDataPayload})
	mpi.RegisterCodec(codecStripPayload, (*stripPayload)(nil), mpi.Codec{Encode: encodeStripPayload, Decode: decodeStripPayload})
	mpi.RegisterCodec(codecLICPayload, (*licPayload)(nil), mpi.Codec{Encode: encodeLICPayload, Decode: decodeLICPayload})
	mpi.RegisterCodec(codecMagPayload, (*magPayload)(nil), mpi.Codec{Encode: encodeMagPayload, Decode: decodeMagPayload})
}

// Data-piece flag bits on the wire.
const dataFlagStale = 1

// encodeDataPayload ships a flags byte, the run headers (block, offset,
// length) and then the single backing value buffer the runs alias, in
// order — the aliasing is rebuilt on decode, so the wire form carries each
// run's length, not its bytes.
func encodeDataPayload(buf []byte, v any) ([]byte, error) {
	p := v.(*dataPayload)
	var flags byte
	if p.stale {
		flags |= dataFlagStale
	}
	buf = append(buf, flags)
	buf = mpi.AppendU32(buf, uint32(len(p.runs)))
	for i := range p.runs {
		buf = mpi.AppendU32(buf, uint32(p.runs[i].Block))
		buf = mpi.AppendU32(buf, uint32(p.runs[i].Off))
		buf = mpi.AppendU32(buf, uint32(len(p.runs[i].Vals)))
	}
	buf = mpi.AppendU32(buf, uint32(len(p.vals)))
	buf = append(buf, p.vals...)
	p.release() // transport is the sender-side consumer
	return buf, nil
}

// decodeDataPayload rebuilds the payload in one from netData and checks what
// this side of the wire can: the flags are known and the runs tile the
// backing bytes exactly. Which blocks and offsets the piece may name is the
// consuming renderer's to decide, against the plan (RealWorkload.checkPiece).
// The run headers arrive before the bytes they alias, so the backing store
// is reserved at the payload's remaining size first: each run is sliced out
// of it as its header is read, and reading the bytes in never moves them.
func decodeDataPayload(r mpi.WireReader) (any, error) {
	flags := r.U8()
	if flags&^dataFlagStale != 0 {
		return nil, fmt.Errorf("core: data payload has unknown flags %#x", flags)
	}
	p := getData(&netData)
	p.stale = flags&dataFlagStale != 0
	room := r.Remaining()
	p.vals = pool.Grow(p.vals, room)[:0]
	total := 0
	for range r.Len(12) {
		run := blockRun{Block: r.I32(), Off: r.I32()}
		n := int(r.U32())
		if n < 0 || n > room-total {
			p.release()
			return nil, fmt.Errorf("core: data payload runs overrun the %d-byte payload", room)
		}
		run.Vals = p.vals[total : total+n : total+n]
		total += n
		p.runs = append(p.runs, run)
	}
	p.vals = r.AppendBytes(p.vals, r.Len(1))
	if err := r.Done(); err != nil {
		p.release()
		return nil, err
	}
	if total != len(p.vals) {
		p.release()
		return nil, fmt.Errorf("core: data payload runs name %d of %d backing bytes", total, len(p.vals))
	}
	return p, nil
}

// Strip flag bits on the wire.
const (
	stripFlagDegraded = 1 << iota
	stripFlagRLE
)

// encodeStripPayload ships the strip's rows, its flags and then whichever
// shape the payload has: the raw canvas, or the length-prefixed run-length
// stream verbatim — the frame carries the bytes RealWorkload.Composite
// declared, plus this header.
func encodeStripPayload(buf []byte, v any) ([]byte, error) {
	sp := v.(*stripPayload)
	buf = mpi.AppendU32(buf, uint32(int32(sp.Strip.Y0)))
	buf = mpi.AppendU32(buf, uint32(int32(sp.Strip.H)))
	var flags byte
	if sp.degraded {
		flags |= stripFlagDegraded
	}
	if sp.compressed {
		flags |= stripFlagRLE
	}
	buf = append(buf, flags)
	if sp.compressed {
		buf = mpi.AppendU32(buf, uint32(len(sp.rle)))
		buf = append(buf, sp.rle...)
	} else {
		buf = compositor.AppendImg(buf, sp.Img)
	}
	sp.release() // returns the canvas to the sender's CompositeScratch
	return buf, nil
}

// decodeStripPayload rebuilds either shape in a payload from netStrips. A
// stream is copied out of the transport's buffer into the payload's own
// and not parsed: Assemble's paste validates it against the frame it
// lands in, which this side of the wire does not know yet.
func decodeStripPayload(r mpi.WireReader) (any, error) {
	sp := netStrips.Get()
	sp.owner = &netStrips
	sp.comp = nil // the canvas is sp.store, recycled with the struct
	sp.Strip = compositor.Strip{Y0: int(r.I32()), H: int(r.I32())}
	flags := r.U8()
	sp.degraded = flags&stripFlagDegraded != 0
	var err error
	switch {
	case flags&^(stripFlagDegraded|stripFlagRLE) != 0:
		err = fmt.Errorf("core: strip payload has unknown flags %#x", flags)
	case flags&stripFlagRLE != 0:
		sp.rle = r.AppendBytes(sp.rle[:0], r.Len(1))
		if err = r.Done(); err == nil {
			sp.compressed = true
		}
	default:
		if err = compositor.ReadImgInto(&r, &sp.store); err == nil {
			sp.Img, err = &sp.store, r.Done()
		}
	}
	if err != nil {
		sp.release()
		return nil, err
	}
	return sp, nil
}

func encodeLICPayload(buf []byte, v any) ([]byte, error) {
	lp := v.(*licPayload)
	buf = compositor.AppendImg(buf, &lp.Img)
	lp.release() // transport is the sender-side consumer
	return buf, nil
}

func decodeLICPayload(r mpi.WireReader) (any, error) {
	lp := netLICs.Get()
	lp.owner = &netLICs
	err := compositor.ReadImgInto(&r, &lp.Img)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		lp.release()
		return nil, err
	}
	return lp, nil
}

// encodeMagPayload ships the magnitudes as bare float32 words, which is
// the 4 bytes per node the hand-off declares.
func encodeMagPayload(buf []byte, v any) ([]byte, error) {
	p := v.(*magPayload)
	buf = mpi.AppendFloat32s(buf, p.mag)
	p.release() // transport is the sender-side consumer
	return buf, nil
}

// decodeMagPayload rebuilds the magnitudes in a payload from netMags,
// refusing a body that is not whole words. Whether their count is the
// part's node count is for the receiving rank to check
// (RealWorkload.takeHandoff), as a renderer checks a piece.
func decodeMagPayload(r mpi.WireReader) (any, error) {
	n := r.Remaining()
	if n%4 != 0 {
		return nil, fmt.Errorf("core: magnitudes payload of %d bytes is not whole float32 words", n)
	}
	p := netMags.Get()
	p.owner = &netMags
	p.mag = r.Float32s(p.mag, n/4)
	return p, nil
}
