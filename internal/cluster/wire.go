// Package cluster is applab's scale-out store (the paper's §5 Rya
// direction): a replicated multi-node serving layer over strabon.Store
// shards. It places triples across replica groups by consistent hash,
// runs node processes answering shard RPCs over a versioned wire
// protocol, and has a coordinator that pushes per-shard BGP fragments
// through the query engine's exchange operator, hedging slow replicas
// and degrading to partial answers when a whole replica group is down.
//
// The wire protocol is deliberately tiny: one frame shape, a dozen
// message types, and triple batches carried as the segment engine's
// AWAL1 record framing (segment.EncodeLogRecord) so that snapshot
// transfer, log-tail catch-up and disk recovery all share one fuzzed
// codec.
package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"applab/internal/rdf"
)

// wireVersion is the protocol version stamped on every frame. A node
// refuses frames from a different version rather than guessing.
const wireVersion = 1

// maxWireBody caps a frame body, mirroring the WAL record cap so a
// snapshot record that fits on disk fits on the wire.
const maxWireBody = 1 << 26

// maxWireString caps any decoded string, matching the segment codec.
const maxWireString = 1 << 24

// wireHeaderLen is the fixed frame prefix: version u8, type u8,
// body-length u32, body CRC32 u32.
const wireHeaderLen = 10

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types. Requests are odd concerns of the read path
// (Match/Card), the replication path (Apply/Snap/Install/Seq) and
// liveness (Ping); every request has exactly one success response type,
// and any request may instead be answered with MsgErr.
const (
	MsgMatchReq MsgType = 1 + iota
	MsgMatchResp
	MsgCardReq
	MsgCardResp
	MsgApplyReq
	MsgApplyResp
	MsgSnapReq
	MsgSnapResp
	MsgInstallReq
	MsgInstallResp
	MsgSeqReq
	MsgSeqResp
	MsgPingReq
	MsgPingResp
	MsgErr
	msgTypeEnd // sentinel: first invalid type
)

// Message is the decoded form of one wire frame. Which fields are
// meaningful depends on Type; unused fields stay zero.
type Message struct {
	Type MsgType
	// Shard addresses the replica-group-local store on the node.
	Shard uint32
	// Seq is the replication sequence number: the record being applied
	// (ApplyReq/InstallReq), the node's last applied sequence
	// (ApplyResp/SeqResp), or the sequence the payload is current as of
	// (MatchResp/CardResp/SnapResp) — readers use it to reject answers
	// from replicas that have not caught up.
	Seq uint64
	// Card is the CardResp cardinality.
	Card int64
	// OK reports ApplyResp acceptance.
	OK bool
	// S, P, O are the MatchReq/CardReq pattern; zero terms are wildcards.
	S, P, O rdf.Term
	// Records holds AWAL1-framed triple batches
	// (segment.EncodeLogRecord / DecodeLogRecords).
	Records []byte
	// Msg is the MsgErr error text.
	Msg string
}

var (
	errWireShort   = errors.New("cluster: truncated wire frame")
	errWireCorrupt = errors.New("cluster: wire frame checksum mismatch")
)

// wireCursor is a bounds-checked reader over a frame body.
type wireCursor struct {
	data []byte
	pos  int
	err  error
}

func (c *wireCursor) fail() {
	if c.err == nil {
		c.err = errWireShort
	}
}

func (c *wireCursor) u8() byte {
	if c.err != nil || c.pos+1 > len(c.data) {
		c.fail()
		return 0
	}
	v := c.data[c.pos]
	c.pos++
	return v
}

func (c *wireCursor) u32() uint32 {
	if c.err != nil || c.pos+4 > len(c.data) {
		c.fail()
		return 0
	}
	b := c.data[c.pos:]
	c.pos += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (c *wireCursor) u64() uint64 {
	lo := c.u32()
	hi := c.u32()
	return uint64(lo) | uint64(hi)<<32
}

// str reads a length-prefixed string. The length is validated against
// the bytes actually present before anything is allocated, so a hostile
// header cannot force a large allocation.
func (c *wireCursor) str() string {
	n := c.u32()
	if c.err != nil {
		return ""
	}
	if n > maxWireString || c.pos+int(n) > len(c.data) {
		c.fail()
		return ""
	}
	v := string(c.data[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return v
}

// bytes reads a length-prefixed byte payload, copied out of the frame.
func (c *wireCursor) bytes() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if int(n) > maxWireBody || c.pos+int(n) > len(c.data) {
		c.fail()
		return nil
	}
	v := append([]byte(nil), c.data[c.pos:c.pos+int(n)]...)
	c.pos += int(n)
	return v
}

// term reads a presence-flagged pattern term.
func (c *wireCursor) term() rdf.Term {
	switch c.u8() {
	case 0:
		return rdf.Term{}
	case 1:
	default:
		c.fail()
		return rdf.Term{}
	}
	kind := c.u8()
	if kind > uint8(rdf.KindBlank) {
		c.fail()
		return rdf.Term{}
	}
	t := rdf.Term{Kind: rdf.TermKind(kind)}
	t.Value = c.str()
	t.Datatype = c.str()
	t.Lang = c.str()
	return t
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendTerm(b []byte, t rdf.Term) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1, byte(t.Kind))
	b = appendStr(b, t.Value)
	b = appendStr(b, t.Datatype)
	return appendStr(b, t.Lang)
}

// EncodeMessage frames a message: version, type, body length, body
// CRC32, body. It returns an error only when the body exceeds the frame
// cap.
func EncodeMessage(m Message) ([]byte, error) {
	body := make([]byte, 0, 64+len(m.Records))
	switch m.Type {
	case MsgMatchReq, MsgCardReq:
		body = appendU32(body, m.Shard)
		body = appendTerm(body, m.S)
		body = appendTerm(body, m.P)
		body = appendTerm(body, m.O)
	case MsgMatchResp, MsgSnapResp:
		body = appendU64(body, m.Seq)
		body = appendU32(body, uint32(len(m.Records)))
		body = append(body, m.Records...)
	case MsgCardResp:
		body = appendU64(body, m.Seq)
		body = appendU64(body, uint64(m.Card))
	case MsgApplyReq, MsgInstallReq:
		body = appendU32(body, m.Shard)
		body = appendU64(body, m.Seq)
		body = appendU32(body, uint32(len(m.Records)))
		body = append(body, m.Records...)
	case MsgApplyResp:
		body = appendU64(body, m.Seq)
		ok := byte(0)
		if m.OK {
			ok = 1
		}
		body = append(body, ok)
	case MsgSnapReq, MsgSeqReq:
		body = appendU32(body, m.Shard)
	case MsgSeqResp:
		body = appendU64(body, m.Seq)
	case MsgInstallResp, MsgPingReq, MsgPingResp:
	case MsgErr:
		body = appendStr(body, m.Msg)
	default:
		return nil, fmt.Errorf("cluster: cannot encode message type %d", m.Type)
	}
	if len(body) > maxWireBody {
		return nil, fmt.Errorf("cluster: frame body %d exceeds cap", len(body))
	}
	out := make([]byte, 0, wireHeaderLen+len(body))
	out = append(out, wireVersion, byte(m.Type))
	out = appendU32(out, uint32(len(body)))
	out = appendU32(out, crc32.ChecksumIEEE(body))
	return append(out, body...), nil
}

// DecodeMessage decodes one frame from the front of data, returning the
// message and the bytes consumed. The decode is strict — version
// mismatch, unknown type, bad CRC, short body or trailing body bytes
// are all errors — and every allocation is bounded by bytes actually
// present, so it is safe on hostile input (see FuzzWireDecode).
func DecodeMessage(data []byte) (Message, int, error) {
	if len(data) < wireHeaderLen {
		return Message{}, 0, errWireShort
	}
	if data[0] != wireVersion {
		return Message{}, 0, fmt.Errorf("cluster: wire version %d, want %d", data[0], wireVersion)
	}
	typ := MsgType(data[1])
	if typ == 0 || typ >= msgTypeEnd {
		return Message{}, 0, fmt.Errorf("cluster: unknown message type %d", typ)
	}
	hc := wireCursor{data: data[2:wireHeaderLen]}
	n := hc.u32()
	sum := hc.u32()
	if n > maxWireBody {
		return Message{}, 0, fmt.Errorf("cluster: frame body length %d exceeds cap", n)
	}
	if wireHeaderLen+int(n) > len(data) {
		return Message{}, 0, errWireShort
	}
	body := data[wireHeaderLen : wireHeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != sum {
		return Message{}, 0, errWireCorrupt
	}
	m := Message{Type: typ}
	c := wireCursor{data: body}
	switch typ {
	case MsgMatchReq, MsgCardReq:
		m.Shard = c.u32()
		m.S = c.term()
		m.P = c.term()
		m.O = c.term()
	case MsgMatchResp, MsgSnapResp:
		m.Seq = c.u64()
		m.Records = c.bytes()
	case MsgCardResp:
		m.Seq = c.u64()
		m.Card = int64(c.u64())
	case MsgApplyReq, MsgInstallReq:
		m.Shard = c.u32()
		m.Seq = c.u64()
		m.Records = c.bytes()
	case MsgApplyResp:
		m.Seq = c.u64()
		switch c.u8() {
		case 0:
		case 1:
			m.OK = true
		default:
			// Reject so decode→encode stays canonical.
			c.fail()
		}
	case MsgSnapReq, MsgSeqReq:
		m.Shard = c.u32()
	case MsgSeqResp:
		m.Seq = c.u64()
	case MsgInstallResp, MsgPingReq, MsgPingResp:
	case MsgErr:
		m.Msg = c.str()
	}
	if c.err != nil {
		return Message{}, 0, c.err
	}
	if c.pos != len(body) {
		return Message{}, 0, fmt.Errorf("cluster: %d trailing bytes in frame body", len(body)-c.pos)
	}
	return m, wireHeaderLen + int(n), nil
}

// ReadMessage reads exactly one frame from a stream.
func ReadMessage(r io.Reader) (Message, error) {
	hdr := make([]byte, wireHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, err
	}
	hc := wireCursor{data: hdr[2:]}
	n := hc.u32()
	if n > maxWireBody {
		return Message{}, fmt.Errorf("cluster: frame body length %d exceeds cap", n)
	}
	buf := make([]byte, wireHeaderLen+int(n))
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[wireHeaderLen:]); err != nil {
		return Message{}, err
	}
	m, _, err := DecodeMessage(buf)
	return m, err
}

// WriteMessage frames and writes one message to a stream.
func WriteMessage(w io.Writer, m Message) error {
	buf, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
