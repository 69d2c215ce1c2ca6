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
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pool"
)

// Codec IDs 64–95 are reserved for internal/core (see
// internal/mpi/codec.go).
const (
	codecDataPayload  mpi.CodecID = 64
	codecStripPayload mpi.CodecID = 65
	codecLICPayload   mpi.CodecID = 66
)

// Receive-side pools for net-decoded payloads.
var (
	netData   pool.Pool[dataPayload]
	netStrips pool.Pool[stripPayload]
	netLICs   pool.Pool[licPayload]
)

func init() {
	mpi.RegisterCodec(codecDataPayload, (*dataPayload)(nil), mpi.Codec{Encode: encodeDataPayload, Decode: decodeDataPayload})
	mpi.RegisterCodec(codecStripPayload, (*stripPayload)(nil), mpi.Codec{Encode: encodeStripPayload, Decode: decodeStripPayload})
	mpi.RegisterCodec(codecLICPayload, (*licPayload)(nil), mpi.Codec{Encode: encodeLICPayload, Decode: decodeLICPayload})
}

// encodeDataPayload ships the run headers (block, offset, length) and then
// the single backing value buffer the runs alias, in order — the aliasing is
// rebuilt on decode, so the wire form carries each run's length, not its
// bytes.
func encodeDataPayload(buf []byte, v any) ([]byte, error) {
	p := v.(*dataPayload)
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
// this side of the wire can: the runs tile the backing bytes exactly. Which
// blocks and offsets the piece may name is the consuming renderer's to
// decide, against the plan (RealWorkload.checkPiece).
func decodeDataPayload(wire []byte) (any, error) {
	r := mpi.NewWireReader(wire)
	hdr := mpi.NewWireReader(r.Bytes(12 * r.Len(12)))
	vals := r.Bytes(r.Len(1))
	if err := r.Done(); err != nil {
		return nil, err
	}
	p := getData(&netData)
	p.vals = append(p.vals, vals...)
	rest := p.vals
	for hdr.Remaining() > 0 {
		run := blockRun{Block: hdr.I32(), Off: hdr.I32()}
		n := int(hdr.U32())
		if n < 0 || n > len(rest) {
			p.release()
			return nil, fmt.Errorf("core: data payload runs overrun %d backing bytes", len(p.vals))
		}
		run.Vals, rest = rest[:n:n], rest[n:]
		p.runs = append(p.runs, run)
	}
	if len(rest) != 0 {
		p.release()
		return nil, fmt.Errorf("core: data payload runs leave %d of %d backing bytes unused", len(rest), len(p.vals))
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
		buf = appendImgVal(buf, sp.Img)
	}
	sp.release() // returns the canvas to the sender's CompositeScratch
	return buf, nil
}

// decodeStripPayload rebuilds either shape in a payload from netStrips. A
// stream is copied out of the transport's buffer into the payload's own
// and not parsed: Assemble's paste validates it against the frame it
// lands in, which this side of the wire does not know yet.
func decodeStripPayload(wire []byte) (any, error) {
	r := mpi.NewWireReader(wire)
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
		stream := r.Bytes(r.Len(1))
		if err = r.Done(); err == nil {
			sp.rle, sp.compressed = append(sp.rle[:0], stream...), true
		}
	default:
		if err = readImgVal(&r, &sp.store); err == nil {
			sp.Img = &sp.store
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
	buf = appendImgVal(buf, &lp.Img)
	lp.release() // transport is the sender-side consumer
	return buf, nil
}

func decodeLICPayload(wire []byte) (any, error) {
	r := mpi.NewWireReader(wire)
	lp := netLICs.Get()
	lp.owner = &netLICs
	if err := readImgVal(&r, &lp.Img); err != nil {
		lp.release()
		return nil, err
	}
	return lp, nil
}

func appendImgVal(buf []byte, m *img.Image) []byte {
	if m == nil {
		return mpi.AppendU32(mpi.AppendU32(buf, 0), 0)
	}
	buf = mpi.AppendU32(buf, uint32(m.W))
	buf = mpi.AppendU32(buf, uint32(m.H))
	return mpi.AppendFloat32s(buf, m.Pix)
}

func readImgVal(r *mpi.WireReader, dst *img.Image) error {
	w, h := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if w < 0 || h < 0 || (w > 0 && 4*w*h/(4*w) != h) || 4*w*h > r.Remaining() {
		return fmt.Errorf("core: wire image %dx%d impossible for %d remaining bytes", w, h, r.Remaining())
	}
	dst.W, dst.H = w, h
	dst.Pix = r.Float32s(dst.Pix, 4*w*h)
	return r.Done()
}
