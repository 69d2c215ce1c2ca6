package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
)

// This file is the serialization layer of the network transport: a
// registry mapping Go payload types to wire codecs, so Message.Data — an
// `any` handed over by reference on the in-process transports — can cross
// a socket. Codecs for the pipeline's pooled payloads live next to the
// payload types (internal/core, internal/compositor, internal/mpiio) and
// register themselves in init; this file provides the registry plus the
// one builtin codec, []byte.
//
// Ownership across the wire (docs/ownership.md "Serialization boundary"):
// Encode is the sending side's consumer — a codec for a pooled payload
// releases it once marshaled. Decode produces a payload owned by the
// receiving process, drawn from that process's pools, whose consumer
// releases it as usual. Decode reads the payload through a WireReader,
// which only copies out: where a frame's bytes live is this package's
// decision alone, so no codec can retain the reader's reused frame buffer.

// CodecID identifies one registered wire codec. IDs are part of the wire
// format and must be stable across all ranks of a job. Ranges are
// reserved per package so registrations cannot collide:
//
//	1–31    internal/mpi builtins (8 is []byte; 1–7 and 9–13 carried the
//	        retired scalar and slice builtins; reserved, never reuse)
//	32–47   internal/mpiio (32 and 35 retired; reserved, never reuse)
//	48–63   internal/compositor
//	64–95   internal/core
//	96+     free
type CodecID uint16

// Codec (de)serializes one payload type for the network transport.
//
// Encode appends the payload's wire form to buf and returns the extended
// slice (append-style; buf may be pooled transport memory). If the
// payload is pool-owned, Encode releases it — the transport is the
// sending side's consumer.
//
// Decode parses one wire payload from r, a cursor over exactly the
// payload's bytes, and returns the decoded value. r only copies bytes out,
// so the value cannot alias the transport's buffer. Malformed input must
// return an error, never panic: the bytes come off a socket.
type Codec struct {
	Encode func(buf []byte, v any) ([]byte, error)
	Decode func(r WireReader) (any, error)
}

// registeredCodec pairs a codec with its ID for type-indexed lookups.
type registeredCodec struct {
	id CodecID
	c  Codec
}

var (
	codecMu     sync.RWMutex
	codecByType = map[reflect.Type]registeredCodec{}
	codecByID   = map[CodecID]registeredCodec{}
)

// RegisterCodec installs a codec for sample's dynamic type under the
// given ID. sample carries only the type (a typed nil pointer is fine).
// Registering a duplicate ID or type panics: codecs are process-global
// wiring, installed once from init.
func RegisterCodec(id CodecID, sample any, c Codec) {
	if id == 0 {
		panic("mpi: RegisterCodec id 0 is reserved for nil payloads")
	}
	if sample == nil {
		panic("mpi: RegisterCodec needs a typed sample value")
	}
	if c.Encode == nil || c.Decode == nil {
		panic("mpi: RegisterCodec needs both Encode and Decode")
	}
	t := reflect.TypeOf(sample)
	codecMu.Lock()
	defer codecMu.Unlock()
	if prev, ok := codecByID[id]; ok {
		panic(fmt.Sprintf("mpi: codec id %d already registered (%v)", id, prev))
	}
	if _, ok := codecByType[t]; ok {
		panic(fmt.Sprintf("mpi: codec for type %v already registered", t))
	}
	rc := registeredCodec{id: id, c: c}
	codecByType[t] = rc
	codecByID[id] = rc
}

func lookupCodecByType(t reflect.Type) (registeredCodec, bool) {
	codecMu.RLock()
	rc, ok := codecByType[t]
	codecMu.RUnlock()
	return rc, ok
}

func lookupCodecByID(id CodecID) (registeredCodec, bool) {
	codecMu.RLock()
	rc, ok := codecByID[id]
	codecMu.RUnlock()
	return rc, ok
}

// valueHdrLen is the per-value wire header: codec ID (uint16 LE) plus
// payload length (uint32 LE). ID 0 with length 0 encodes a nil payload.
const valueHdrLen = 6

// appendValue appends v's wire form ([id][len][payload]) to buf.
func appendValue(buf []byte, v any) ([]byte, error) {
	if v == nil {
		return append(buf, 0, 0, 0, 0, 0, 0), nil
	}
	rc, ok := lookupCodecByType(reflect.TypeOf(v))
	if !ok {
		return nil, fmt.Errorf("mpi: no codec registered for payload type %T (RegisterCodec before using the net transport)", v)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(rc.id))
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	out, err := rc.c.Encode(buf, v)
	if err != nil {
		return nil, fmt.Errorf("mpi: encoding %T: %w", v, err)
	}
	n := len(out) - lenAt - 4
	if n < 0 || int64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("mpi: codec for %T produced invalid payload length %d", v, n)
	}
	binary.LittleEndian.PutUint32(out[lenAt:], uint32(n))
	return out, nil
}

// readValue parses one wire value from the front of wire, returning the
// decoded payload and the remaining bytes. All malformed inputs —
// truncated headers, lengths past the buffer, unknown codec IDs, codec
// parse failures — return an error; readValue never panics on wire data.
func readValue(wire []byte) (v any, rest []byte, err error) {
	if len(wire) < valueHdrLen {
		return nil, nil, fmt.Errorf("mpi: wire value truncated: %d bytes, want at least %d", len(wire), valueHdrLen)
	}
	id := CodecID(binary.LittleEndian.Uint16(wire))
	n := int(binary.LittleEndian.Uint32(wire[2:]))
	if n < 0 || n > len(wire)-valueHdrLen {
		return nil, nil, fmt.Errorf("mpi: wire value length %d exceeds remaining %d bytes", n, len(wire)-valueHdrLen)
	}
	body := wire[valueHdrLen : valueHdrLen+n]
	rest = wire[valueHdrLen+n:]
	if id == 0 {
		if n != 0 {
			return nil, nil, fmt.Errorf("mpi: nil wire value carries %d payload bytes", n)
		}
		return nil, rest, nil
	}
	rc, ok := lookupCodecByID(id)
	if !ok {
		return nil, nil, fmt.Errorf("mpi: unknown codec id %d on the wire", id)
	}
	// By value: a pointer through the func-typed hook would move the
	// reader to the heap, one allocation per frame.
	v, err = rc.c.Decode(NewWireReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: decoding codec %d: %w", id, err)
	}
	return v, rest, nil
}

// --- WireReader ------------------------------------------------------------

// WireReader is the bounds-checked cursor codec Decode implementations
// parse their payload with. Every accessor copies out of the buffer (a
// value, or into a slice the caller owns); none returns a slice of it, so
// a decoded payload cannot retain the transport's reused frame buffer.
// All accessors are sticky-error: the first underflow latches Err and
// subsequent reads return zero values, so a decoder can parse
// straight-line and check Err once — truncated input yields an error,
// never a panic.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader returns a cursor over b.
func NewWireReader(b []byte) WireReader { return WireReader{b: b} }

// Err returns the first underflow encountered, or nil.
func (r *WireReader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *WireReader) Remaining() int { return len(r.b) }

// Done returns an error unless the cursor is clean and fully consumed.
func (r *WireReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("mpi: %d trailing bytes after wire payload", len(r.b))
	}
	return nil
}

func (r *WireReader) underflow(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("mpi: wire payload truncated: need %d bytes, have %d", n, len(r.b))
	}
}

// next consumes the next n bytes and returns them, aliasing the buffer.
// It is unexported: a codec reaches the bytes only through the copying
// accessors. A negative or out-of-range n latches an error and returns nil.
func (r *WireReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.underflow(n)
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// U8 reads one byte.
func (r *WireReader) U8() byte {
	b := r.next(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *WireReader) U32() uint32 {
	b := r.next(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *WireReader) U64() uint64 {
	b := r.next(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// AppendBytes copies the next n bytes onto dst and returns the extended
// slice. n is checked against Remaining before dst grows, so a hostile
// length latches an error and returns dst unchanged.
func (r *WireReader) AppendBytes(dst []byte, n int) []byte {
	b := r.next(n)
	if b == nil {
		return dst
	}
	return append(dst, b...)
}

// I64 reads a little-endian two's-complement int64.
func (r *WireReader) I64() int64 { return int64(r.U64()) }

// I32 reads a little-endian two's-complement int32 (sign-extended).
func (r *WireReader) I32() int32 { return int32(r.U32()) }

// Len reads a uint32 element count and validates it against the bytes
// actually remaining (at least perElem bytes each, minimum 1), so a
// hostile count cannot drive a huge allocation before parsing fails.
func (r *WireReader) Len(perElem int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if perElem < 1 {
		perElem = 1
	}
	if n < 0 || n > len(r.b)/perElem {
		if r.err == nil {
			r.err = fmt.Errorf("mpi: wire element count %d impossible for %d remaining bytes", n, len(r.b))
		}
		return 0
	}
	return n
}

// Float32s reads n little-endian IEEE-754 floats, reusing dst's capacity.
func (r *WireReader) Float32s(dst []float32, n int) []float32 {
	b := r.next(4 * n)
	if b == nil {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return dst
}

// AppendFloat32s appends vals' IEEE-754 little-endian bytes to buf —
// the encode-side counterpart of WireReader.Float32s. Pixel data crosses
// the wire as exact bit patterns, so decoded frames are bit-identical.
// The room is reserved once, so a cold buffer grows by one allocation
// rather than by append's doubling.
func AppendFloat32s(buf []byte, vals []float32) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 4*len(vals))[:n+4*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[n+4*i:], math.Float32bits(v))
	}
	return buf
}

// AppendU32 appends v's little-endian bytes — the encode-side
// counterpart of WireReader.U32.
func AppendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// AppendU64 appends v's little-endian bytes — the encode-side
// counterpart of WireReader.U64 (and, via two's complement, I64).
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// --- Builtin codec ---------------------------------------------------------

// codecBytes is the one builtin codec: a []byte crosses the wire verbatim
// (quakebench's transport probe ships one). The scalar and slice builtins
// that only tests sent are retired; see the ID table on CodecID.
const codecBytes CodecID = 8

func init() {
	RegisterCodec(codecBytes, []byte(nil), Codec{
		Encode: func(buf []byte, v any) ([]byte, error) {
			return append(buf, v.([]byte)...), nil
		},
		Decode: func(r WireReader) (any, error) {
			return r.AppendBytes(nil, r.Remaining()), nil
		},
	})
}
