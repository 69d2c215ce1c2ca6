package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the network transport's wire codec: the data/control frame
// and the one bootstrap handshake message.
//
// Wire format, all little-endian:
//
//	frame  = [len u32] [seq u64] [ack u64] [tag u64] [bytes u64] [value]
//	value  = [codec id u16] [len u32] [payload]   (see codec.go)
//
// len counts everything after itself. seq numbers this connection's data
// frames from 1; seq 0 marks a pure control frame (heartbeat/ack) that
// the codec layer never surfaces. ack piggybacks the highest data seq
// the sender has delivered from this peer, cumulatively — it both keeps
// the resend ring's window open under sustained flow and lets a
// reconnecting peer trim its replay.

const (
	// netFrameMeta is the fixed seq+ack+tag+bytes portion of a frame body.
	netFrameMeta = 32

	// goodbyeSeq in a frame's seq field marks a clean-shutdown control
	// frame: the peer is closing deliberately, so the receiver must not
	// burn reconnect attempts or count it as a lost peer. Data seqs
	// count up from 1 and can never reach it.
	goodbyeSeq = ^uint64(0)

	// maxNetFrame bounds a frame's declared length; anything larger is
	// rejected as hostile/corrupt before any allocation happens.
	maxNetFrame = 1 << 30

	// maxNetAddrLen bounds an advertised listen address in bootstrap
	// messages.
	maxNetAddrLen = 1 << 10
)

// appendFrame encodes one frame into buf (reusing its capacity) and
// patches the length prefix. seq 0 with nil data is a pure control
// frame. The ack is left 0 for putFrameAck to stamp as the frame leaves.
//
//repro:allocfree
func appendFrame(buf []byte, seq, tag, nbytes uint64, data any) ([]byte, error) {
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // ack
	buf = binary.LittleEndian.AppendUint64(buf, tag)
	buf = binary.LittleEndian.AppendUint64(buf, nbytes)
	buf, err := appendValue(buf, data)
	if err != nil {
		return buf, err
	}
	if len(buf)-4 > maxNetFrame {
		return buf, fmt.Errorf("mpi: net frame of %d bytes exceeds limit %d", len(buf)-4, maxNetFrame)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}

// putFrameAck stamps the cumulative ack into an encoded frame in place,
// so a frame (a replay too) acks what the reader has delivered when it
// leaves, not when it was encoded.
func putFrameAck(frame []byte, ack uint64) {
	binary.LittleEndian.PutUint64(frame[12:], ack)
}

// readFrame reads and decodes one frame, returning its seq and ack
// alongside the message. The scratch buffer is reused across frames;
// decoded payloads never alias it (codec contract). All malformed input
// — hostile lengths, truncated frames, unknown codecs — returns an
// error, never panics.
//
//repro:allocfree
func readFrame(br *bufio.Reader, scratch *[]byte) (Message, uint64, uint64, error) {
	// The length prefix is read into the reused body scratch (a local
	// [4]byte would escape through the io.Reader interface and put one
	// heap object on every frame).
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 4) //repro:allow allocfree: one-time scratch init
	}
	hdr := (*scratch)[:4]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return Message{}, 0, 0, err // io.EOF here is a clean end of stream
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < netFrameMeta+valueHdrLen || n > maxNetFrame {
		return Message{}, 0, 0, fmt.Errorf("mpi: invalid net frame length %d", n)
	}
	body, err := readFrameBody(br, scratch, n)
	if err != nil {
		// Name the frame as the write side does, once its seq is in.
		if len(body) < 8 {
			return Message{}, 0, 0, fmt.Errorf("mpi: net frame (%d B) truncated after %d B: %w", n+4, len(body)+4, err)
		}
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame %d (%d B) truncated after %d B: %w", binary.LittleEndian.Uint64(body), n+4, len(body)+4, err)
	}
	seq := binary.LittleEndian.Uint64(body)
	ack := binary.LittleEndian.Uint64(body[8:])
	tag := binary.LittleEndian.Uint64(body[16:])
	nbytes := binary.LittleEndian.Uint64(body[24:])
	if tag > uint64(maxTag) {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame tag %#x out of range", tag)
	}
	if nbytes > 1<<62 {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame byte count %#x out of range", nbytes)
	}
	v, rest, err := readValue(body[netFrameMeta:])
	if err != nil {
		return Message{}, 0, 0, err
	}
	if len(rest) != 0 {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame has %d trailing bytes", len(rest))
	}
	return Message{Tag: int(tag), Bytes: int64(nbytes), Data: v}, seq, ack, nil
}

// readFrameBody reads the n-byte frame body into the reused scratch
// buffer. When the scratch is already big enough (the steady state) this
// is a single zero-allocation ReadFull; otherwise it grows in bounded
// chunks as bytes actually arrive, so a hostile length prefix on a
// truncated stream cannot force a huge up-front allocation. On error it
// returns the part of the body that arrived.
//
//repro:allocfree
func readFrameBody(br *bufio.Reader, scratch *[]byte, n int) ([]byte, error) {
	buf := *scratch
	if cap(buf) >= n {
		got, err := io.ReadFull(br, buf[:n])
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:got], err
	}
	buf = buf[:0]
	for got := 0; got < n; {
		c := min(n-got, 1<<20)
		if cap(buf) < got+c {
			// Doubling keeps the copying linear in the frame size, and
			// the capacity within twice the bytes that have arrived.
			nbuf := make([]byte, got+c, min(n, max(got+c, 2*cap(buf)))) //repro:allow allocfree: bounded-chunk growth of the reused scratch
			copy(nbuf, buf[:got])
			buf = nbuf
		} else {
			buf = buf[:got+c]
		}
		*scratch = buf
		if k, err := io.ReadFull(br, buf[got:got+c]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:got+k], err
		}
		got += c
	}
	*scratch = buf
	return buf, nil
}

// --- Bootstrap handshake ---------------------------------------------------

// netMagic prefixes every bootstrap message so a stray connection is
// rejected instead of desynchronizing the rendezvous.
const netMagic = 0x514b5256 // "QKRV"

// Handshake kinds. Every bootstrap round trip is one message each way.
const (
	hsRegister   = 1 // peer -> coordinator: rank + its listen address
	hsHello      = 2 // peer -> lower-ranked peer: rank introduction
	hsTable      = 3 // coordinator -> peer: the full address table
	hsReattach   = 4 // healing peer -> lower-ranked peer: rank + recv cursor
	hsReattachOK = 5 // lower-ranked peer -> healing peer: rank + recv cursor
)

// hsHeaderLen is a handshake's fixed part: magic, kind, rank, seq, count.
const hsHeaderLen = 4 + 1 + 4 + 8 + 4

// handshake is one bootstrap message, of any kind:
//
//	[magic u32][kind u8][rank u32][seq u64][count u32]([len u16][addr])*
//
// rank is the sender's. seq is the sender's receive cursor for the link
// being healed (the reattach kinds; 0 otherwise). addrs are listen
// addresses: the sender's own (register), every rank's (table), or none.
// The count is as wide as the rank, so a table fits any job a rank can
// number; the reader bounds it by the job size (hsAddrs).
type handshake struct {
	kind  byte
	rank  int
	seq   uint64
	addrs []string
}

// hsAddrs is how many addresses a message of the given kind carries in a
// job of size ranks, or -1 for an unknown kind.
func hsAddrs(kind byte, size int) int {
	switch kind {
	case hsRegister:
		return 1
	case hsTable:
		return size
	case hsHello, hsReattach, hsReattachOK:
		return 0
	}
	return -1
}

// writeHandshake sends one bootstrap message in a single write.
func writeHandshake(conn io.Writer, h handshake) error {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, hsHeaderLen), netMagic)
	b = append(b, h.kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.rank))
	b = binary.LittleEndian.AppendUint64(b, h.seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.addrs)))
	for _, a := range h.addrs {
		if len(a) > maxNetAddrLen {
			return fmt.Errorf("mpi: advertised address of %d bytes too long", len(a))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(a)))
		b = append(b, a...)
	}
	_, err := conn.Write(b)
	return err
}

// readHandshake reads one bootstrap message from a peer of a size-rank
// job. Every field is checked before it is used — the magic, the kind, the
// rank against the job, the address count against what the kind carries,
// each address length against maxNetAddrLen — and an address's bytes are
// allocated only once its bounded length has arrived, so hostile or
// truncated input returns an error, never a panic, and never sizes an
// allocation. It consumes exactly the message: the frames that follow on
// the connection are the reader loop's.
func readHandshake(r io.Reader, size int) (handshake, error) {
	var hdr [hsHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return handshake{}, err
	}
	if binary.LittleEndian.Uint32(hdr[:]) != netMagic {
		return handshake{}, errors.New("mpi: bad bootstrap magic")
	}
	h := handshake{
		kind: hdr[4],
		rank: int(int32(binary.LittleEndian.Uint32(hdr[5:]))),
		seq:  binary.LittleEndian.Uint64(hdr[9:]),
	}
	n := int(binary.LittleEndian.Uint32(hdr[17:]))
	want := hsAddrs(h.kind, size)
	switch {
	case want < 0:
		return handshake{}, fmt.Errorf("mpi: unknown bootstrap message kind %d", h.kind)
	case h.rank < 0 || h.rank >= size:
		return handshake{}, fmt.Errorf("mpi: bootstrap message from rank %d of a %d-rank job", h.rank, size)
	case n != want:
		return handshake{}, fmt.Errorf("mpi: bootstrap message kind %d carries %d addresses, want %d", h.kind, n, want)
	}
	if n > 0 {
		h.addrs = make([]string, 0, n)
	}
	for range n {
		if _, err := io.ReadFull(r, hdr[:2]); err != nil {
			return handshake{}, err
		}
		alen := int(binary.LittleEndian.Uint16(hdr[:2]))
		if alen > maxNetAddrLen {
			return handshake{}, fmt.Errorf("mpi: bootstrap address length %d too long", alen)
		}
		ab := make([]byte, alen)
		if _, err := io.ReadFull(r, ab); err != nil {
			return handshake{}, err
		}
		h.addrs = append(h.addrs, string(ab))
	}
	return h, nil
}
