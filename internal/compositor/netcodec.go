package compositor

// Wire codecs for the compositing exchanges, so SLIC / direct-send /
// binary-swap run unchanged over the network transport.
//
// Ownership across the wire (docs/ownership.md "Serialization
// boundary"): encoding a pooled payload releases it back to the sending
// rank's pool — the transport is the sender-side consumer — and decoding
// draws a payload from this process's receive pools, stamping the owner
// so the receiving rank's usual Release recycles it locally. Pixel data
// crosses as exact IEEE-754 bit patterns, so composited frames are
// bit-identical to the in-process transports.

import (
	"fmt"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pool"
)

// Codec IDs 48–63 are reserved for internal/compositor (see
// internal/mpi/codec.go).
const (
	codecWirePayload mpi.CodecID = 48
	codecSwapPayload mpi.CodecID = 49
)

// Receive-side pools: decoded payloads are owned by the decoding process
// and cycle through these as their consumers release them.
var (
	netPayloads pool.Pool[wirePayload]
	netSwaps    pool.Pool[swapPayload]
)

func init() {
	mpi.RegisterCodec(codecWirePayload, (*wirePayload)(nil), mpi.Codec{Encode: encodeWirePayload, Decode: decodeWirePayload})
	mpi.RegisterCodec(codecSwapPayload, (*swapPayload)(nil), mpi.Codec{Encode: encodeSwapPayload, Decode: decodeSwapPayload})
}

func appendImg(buf []byte, m *img.Image) []byte {
	if m == nil {
		return mpi.AppendU32(mpi.AppendU32(buf, 0), 0)
	}
	buf = mpi.AppendU32(buf, uint32(m.W))
	buf = mpi.AppendU32(buf, uint32(m.H))
	return mpi.AppendFloat32s(buf, m.Pix)
}

// readImgInto decodes a w/h/pixels image into dst, reusing its pixel
// capacity. A zero-sized image decodes to an empty (but valid) dst.
func readImgInto(r *mpi.WireReader, dst *img.Image) error {
	w, h := int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if w < 0 || h < 0 || (w > 0 && 4*w*h/(4*w) != h) || 4*w*h > r.Remaining() {
		return fmt.Errorf("compositor: wire image %dx%d impossible for %d remaining bytes", w, h, r.Remaining())
	}
	dst.W, dst.H = w, h
	dst.Pix = r.Float32s(dst.Pix, 4*w*h)
	return r.Err()
}

func encodeWirePayload(buf []byte, v any) ([]byte, error) {
	p := v.(*wirePayload)
	buf = mpi.AppendU32(buf, uint32(len(p.subs)))
	for i := range p.subs {
		s := &p.subs[i]
		buf = mpi.AppendU32(buf, uint32(int32(s.X0)))
		buf = mpi.AppendU32(buf, uint32(int32(s.Y0)))
		buf = mpi.AppendU32(buf, uint32(int32(s.W)))
		buf = mpi.AppendU32(buf, uint32(int32(s.H)))
		buf = mpi.AppendU32(buf, uint32(int32(s.VisRank)))
		if s.compressed {
			buf = append(buf, 1)
			buf = mpi.AppendU32(buf, uint32(len(s.RLE)))
			buf = append(buf, s.RLE...)
		} else {
			buf = append(buf, 0)
			buf = appendImg(buf, s.Raw)
		}
	}
	p.Release() // transport is the sender-side consumer
	return buf, nil
}

func decodeWirePayload(wire []byte) (any, error) {
	r := mpi.NewWireReader(wire)
	n := r.Len(21)
	p := getPayload(&netPayloads)
	for i := 0; i < n; i++ {
		s := p.add()
		s.X0 = int(r.I32())
		s.Y0 = int(r.I32())
		s.W = int(r.I32())
		s.H = int(r.I32())
		s.VisRank = int(r.I32())
		s.compressed = r.U8() != 0
		if s.compressed {
			s.RLE = append(s.RLE[:0], r.Bytes(int(r.U32()))...)
		} else {
			if s.Raw == nil {
				s.Raw = &img.Image{}
			}
			if err := readImgInto(&r, s.Raw); err != nil {
				p.Release()
				return nil, err
			}
		}
	}
	if err := r.Done(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

func encodeSwapPayload(buf []byte, v any) ([]byte, error) {
	p := v.(*swapPayload)
	buf = appendImg(buf, &p.img)
	p.Release() // transport is the sender-side consumer
	return buf, nil
}

func decodeSwapPayload(wire []byte) (any, error) {
	r := mpi.NewWireReader(wire)
	p := getSwap(&netSwaps, 0, 0)
	if err := readImgInto(&r, &p.img); err != nil {
		p.Release()
		return nil, err
	}
	if err := r.Done(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}
