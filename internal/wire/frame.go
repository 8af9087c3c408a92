package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Stream framing for TCP transports: every message is prefixed by a 4-byte
// little-endian header word. MaxFrame bounds a frame on read so a corrupt
// or hostile peer cannot force an unbounded allocation.
//
// The header word is versioned via its top bit. Version 1 (the original
// format) uses the word as a plain payload length. Version 2 sets bit 31
// (traceFlag) and carries a fixed-size TraceContext between the header and
// the message, so distributed tracing rides inside the existing framing:
//
//	v1 frame := len:uint32                    msg[len]
//	v2 frame := (len|traceFlag):uint32  ctx[10]  msg[len-10]
//
// where the flagged length covers the context plus the message, so a
// forwarder that only understands "read length, copy that many bytes" (see
// ReadRawFrame) stays correct without decoding the context. A v1-only
// reader rejects a v2 frame loudly (the flagged length exceeds MaxFrame)
// instead of misparsing it; a v2 reader accepts both versions, which keeps
// mixed fleets safe during rollout.
//
// A frame is one Write: AppendFrame assembles header, context and message
// in one buffer, which the Write functions take from a pool, so a frame
// never goes out as a header segment followed by a body segment. On the
// read side, parseHeader is the one check of a header word, shared by
// ReadFrameCtx and ReadRawFrame.
const MaxFrame = 64 << 20

// ReadBufferSize is the size of the bufio.Reader a socket reader that
// reads many frames wraps its connection in, so that a frame's header and body, and often the
// frames queued behind it, arrive in one read system call.
const ReadBufferSize = 4 << 10

// traceFlag marks a frame that carries a TraceContext after the header.
const traceFlag = 1 << 31

// TraceContextSize is the encoded size of a TraceContext.
const TraceContextSize = 10

// TraceContext is the compact causal-trace header a traced frame carries:
// the query identity (the paper's (originator, counter) pair doubles as the
// trace ID), the hop number this frame represents, and the peer that sent
// it. It is deliberately tiny — ten bytes against kilobyte result frames —
// so tracing perturbs the byte ledger it exists to explain as little as
// possible.
type TraceContext struct {
	// Org and Cnt identify the query instance (the trace ID).
	Org int32
	Cnt uint8
	// Hop is the TCP hop number of this transmission: 1 for a frame the
	// originator sends, incremented by every forwarding peer.
	Hop uint8
	// Parent is the device that put this frame on the wire.
	Parent int32
}

// appendTraceContext encodes tc.
func appendTraceContext(b []byte, tc *TraceContext) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(tc.Org))
	b = binary.LittleEndian.AppendUint32(b, uint32(tc.Parent))
	b = append(b, tc.Cnt, tc.Hop)
	return b
}

// decodeTraceContext decodes a TraceContextSize-byte context.
func decodeTraceContext(b []byte) TraceContext {
	return TraceContext{
		Org:    int32(binary.LittleEndian.Uint32(b)),
		Parent: int32(binary.LittleEndian.Uint32(b[4:])),
		Cnt:    b[8],
		Hop:    b[9],
	}
}

// AppendFrame appends one framed message to dst and returns the extended
// slice: a v1 frame when tc is nil, a v2 frame carrying tc otherwise. It is
// the only code that lays a frame out. It does not check MaxFrame; the
// Write functions do, and a reader rejects an oversized frame.
func AppendFrame(dst, msg []byte, tc *TraceContext) []byte {
	if tc == nil {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	} else {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)+TraceContextSize)|traceFlag)
		dst = appendTraceContext(dst, tc)
	}
	return append(dst, msg...)
}

// framePool recycles the buffers the Write functions assemble frames in,
// so that writing a frame in one Write allocates nothing in steady state.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame caps the buffers framePool keeps, so one large result
// frame does not stay pinned in every pool slot.
const maxPooledFrame = 64 << 10

// writeOnce hands the frame that build appends to a pooled buffer to w in
// a single Write.
func writeOnce(w io.Writer, build func([]byte) []byte) error {
	bp := framePool.Get().(*[]byte)
	b := build((*bp)[:0])
	_, err := w.Write(b)
	if cap(b) <= maxPooledFrame {
		*bp = b
		framePool.Put(bp)
	}
	return err
}

// WriteFrame writes one length-prefixed message in the v1 format.
func WriteFrame(w io.Writer, msg []byte) error {
	return WriteFrameCtx(w, msg, nil)
}

// WriteFrameCtx writes one framed message in a single Write; a non-nil tc
// upgrades the frame to v2 with the trace context piggy-backed. A nil tc
// produces bytes identical to WriteFrame, so untraced deployments stay on
// the v1 wire format and tracing costs nothing when disabled.
func WriteFrameCtx(w io.Writer, msg []byte, tc *TraceContext) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(msg))
	}
	return writeOnce(w, func(b []byte) []byte { return AppendFrame(b, msg, tc) })
}

// ReadFrame reads one length-prefixed message, accepting both frame
// versions and discarding any trace context.
func ReadFrame(r io.Reader) ([]byte, error) {
	msg, _, _, err := ReadFrameCtx(r)
	return msg, err
}

// ReadFrameCtx reads one framed message of either version. For a v2 frame
// it also returns the trace context and traced=true; for a v1 frame the
// context is zero and traced=false.
func ReadFrameCtx(r io.Reader) (msg []byte, tc TraceContext, traced bool, err error) {
	_, body, traced, err := readFrame(r)
	if err != nil {
		return nil, tc, false, err
	}
	if traced {
		tc = decodeTraceContext(body)
		body = body[TraceContextSize:]
	}
	return body, tc, traced, nil
}

// FrameWireSize is the on-air size of one framed message: header word plus
// trace context (when traced) plus payload. Transports use it so byte
// ledgers reflect exactly what crossed the socket.
func FrameWireSize(msgLen int, traced bool) int {
	if traced {
		return 4 + TraceContextSize + msgLen
	}
	return 4 + msgLen
}

// ReadRawFrame reads one frame of either version without decoding it: the
// header word is returned verbatim and the body includes the trace context
// when present. Frame-aware middleboxes (the chaos proxies) use it to
// forward traced frames transparently. It applies ReadFrameCtx's limits,
// so it passes on exactly the frames a peer accepts.
func ReadRawFrame(r io.Reader) (hdr [4]byte, body []byte, err error) {
	hdr, body, _, err = readFrame(r)
	return hdr, body, err
}

// WriteRawFrame writes a frame previously read by ReadRawFrame in a single
// Write, preserving its version bit and trace context byte-for-byte.
func WriteRawFrame(w io.Writer, hdr [4]byte, body []byte) error {
	return writeOnce(w, func(b []byte) []byte { return append(append(b, hdr[:]...), body...) })
}

// readFrame reads one frame of either version: the header word verbatim
// and the body after it, trace context included when traced. io.EOF means
// the stream ended cleanly between frames; a stream that ends inside a
// frame, even right after its header, is io.ErrUnexpectedEOF.
func readFrame(r io.Reader) (hdr [4]byte, body []byte, traced bool, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return hdr, nil, false, err
	}
	n, traced, err := parseHeader(binary.LittleEndian.Uint32(hdr[:]))
	if err != nil {
		return hdr, nil, false, err
	}
	body = make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return hdr, nil, false, err
	}
	return hdr, body, traced, nil
}

// parseHeader is the one check of a header word: it returns the length of
// the body that follows (trace context included) and whether the frame is
// traced, or an error when no reader should accept the frame.
func parseHeader(word uint32) (n uint32, traced bool, err error) {
	traced = word&traceFlag != 0
	n = word &^ traceFlag
	msgLen := n
	if traced {
		if n < TraceContextSize {
			return 0, false, fmt.Errorf("wire: traced frame of %d bytes lacks a trace context", n)
		}
		msgLen -= TraceContextSize
	}
	if msgLen > MaxFrame {
		return 0, false, fmt.Errorf("wire: frame of %d bytes exceeds limit", msgLen)
	}
	return n, traced, nil
}
