package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestFrameCtxRoundTrip(t *testing.T) {
	msgs := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 4096)}
	ctxs := []*TraceContext{
		nil,
		{Org: 0, Cnt: 0, Hop: 0, Parent: 0},
		{Org: 7, Cnt: 3, Hop: 1, Parent: 7},
		{Org: -2, Cnt: 255, Hop: 255, Parent: 1<<31 - 1},
	}
	for _, tc := range ctxs {
		for _, msg := range msgs {
			var buf bytes.Buffer
			if err := WriteFrameCtx(&buf, msg, tc); err != nil {
				t.Fatalf("WriteFrameCtx: %v", err)
			}
			wantSize := FrameWireSize(len(msg), tc != nil)
			if buf.Len() != wantSize {
				t.Errorf("frame size %d, FrameWireSize says %d", buf.Len(), wantSize)
			}
			got, gotTC, traced, err := ReadFrameCtx(&buf)
			if err != nil {
				t.Fatalf("ReadFrameCtx: %v", err)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("payload mismatch: %x vs %x", got, msg)
			}
			if traced != (tc != nil) {
				t.Errorf("traced = %v for ctx %v", traced, tc)
			}
			if tc != nil && gotTC != *tc {
				t.Errorf("ctx round trip: got %+v, want %+v", gotTC, *tc)
			}
		}
	}
}

// TestFrameCtxNilMatchesLegacy pins the compatibility contract: a nil trace
// context produces the v1 byte stream exactly, and a v1-era reader (which
// treats the header word as a plain length) reads it unchanged.
func TestFrameCtxNilMatchesLegacy(t *testing.T) {
	msg := []byte("legacy payload")
	var a, b bytes.Buffer
	if err := WriteFrame(&a, msg); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameCtx(&b, msg, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("nil-ctx frame differs from legacy frame:\n%x\n%x", a.Bytes(), b.Bytes())
	}
	n := binary.LittleEndian.Uint32(a.Bytes())
	if n != uint32(len(msg)) {
		t.Fatalf("legacy header word = %d, want plain length %d", n, len(msg))
	}
}

// TestTracedFrameRejectedByLegacyLengthCheck documents the failure mode for
// a v1-only reader: the flagged header word exceeds MaxFrame, so the frame
// is rejected loudly instead of misparsed as a giant payload.
func TestTracedFrameRejectedByLegacyLengthCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameCtx(&buf, []byte("x"), &TraceContext{Org: 1}); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(buf.Bytes())
	if n <= MaxFrame {
		t.Fatalf("traced header word %d would pass a v1 length check", n)
	}
}

func TestReadFrameDiscardsCtx(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameCtx(&buf, []byte("msg"), &TraceContext{Org: 9, Cnt: 1, Hop: 2, Parent: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame on traced frame: %v", err)
	}
	if string(got) != "msg" {
		t.Errorf("payload = %q", got)
	}
}

// TestRawFramePassthrough pins the middlebox contract: read-raw + write-raw
// reproduces both frame versions byte-for-byte.
func TestRawFramePassthrough(t *testing.T) {
	var in bytes.Buffer
	if err := WriteFrame(&in, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameCtx(&in, []byte("traced"), &TraceContext{Org: 3, Cnt: 2, Hop: 1, Parent: 0}); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), in.Bytes()...)
	var out bytes.Buffer
	for i := 0; i < 2; i++ {
		hdr, body, err := ReadRawFrame(&in)
		if err != nil {
			t.Fatalf("ReadRawFrame %d: %v", i, err)
		}
		if err := WriteRawFrame(&out, hdr, body); err != nil {
			t.Fatalf("WriteRawFrame %d: %v", i, err)
		}
	}
	if !bytes.Equal(out.Bytes(), orig) {
		t.Fatalf("raw passthrough not byte-identical:\n%x\n%x", out.Bytes(), orig)
	}
	// The forwarded traced frame still decodes with its context intact.
	var replay bytes.Buffer
	replay.Write(out.Bytes())
	if _, err := ReadFrame(&replay); err != nil {
		t.Fatal(err)
	}
	msg, tc, traced, err := ReadFrameCtx(&replay)
	if err != nil || !traced {
		t.Fatalf("forwarded traced frame lost its context (traced=%v err=%v)", traced, err)
	}
	if string(msg) != "traced" || tc.Org != 3 || tc.Hop != 1 {
		t.Errorf("forwarded frame decoded to %q %+v", msg, tc)
	}
}

func TestTracedFrameTruncations(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrameCtx(&full, []byte("payload"), &TraceContext{Org: 5, Parent: 2, Hop: 3, Cnt: 1}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		_, _, _, err := ReadFrameCtx(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(raw))
		}
	}
	// A flagged frame too short to hold a context is rejected.
	var bad bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(TraceContextSize-1)|traceFlag)
	bad.Write(hdr[:])
	bad.Write(make([]byte, TraceContextSize-1))
	if _, _, _, err := ReadFrameCtx(&bad); err == nil {
		t.Error("undersized traced frame accepted")
	}
}

// FuzzFrameCtxRoundTrip drives the framing from structured inputs: every
// frame we can write must read back identically, traced or not.
func FuzzFrameCtxRoundTrip(f *testing.F) {
	f.Add([]byte("msg"), true, int32(1), uint8(2), uint8(3), int32(4))
	f.Add([]byte{}, false, int32(0), uint8(0), uint8(0), int32(0))
	f.Add(bytes.Repeat([]byte{7}, 100), true, int32(-1), uint8(255), uint8(255), int32(-9))
	f.Fuzz(func(t *testing.T, msg []byte, traced bool, org int32, cnt, hop uint8, parent int32) {
		var tc *TraceContext
		if traced {
			tc = &TraceContext{Org: org, Cnt: cnt, Hop: hop, Parent: parent}
		}
		var buf bytes.Buffer
		if err := WriteFrameCtx(&buf, msg, tc); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, gotTC, gotTraced, err := ReadFrameCtx(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, msg) || gotTraced != traced {
			t.Fatalf("round trip changed frame: %x/%v vs %x/%v", got, gotTraced, msg, traced)
		}
		if traced && gotTC != *tc {
			t.Fatalf("context changed: %+v vs %+v", gotTC, *tc)
		}
		// Raw passthrough must preserve the stream byte-for-byte.
		hdr, body, err := ReadRawFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("raw read: %v", err)
		}
		var out bytes.Buffer
		if err := WriteRawFrame(&out, hdr, body); err != nil {
			t.Fatalf("raw write: %v", err)
		}
		if !bytes.Equal(out.Bytes(), buf.Bytes()) {
			t.Fatal("raw passthrough not identical")
		}
	})
}

// TestHeaderLimits pins the one header check both readers share at its
// boundaries: a v1 body may be MaxFrame bytes, a traced body must hold a
// trace context and at most MaxFrame message bytes after it. A rejected
// header fails both readers before any body is read, so the chaos proxy
// passes on exactly the frames a peer accepts.
func TestHeaderLimits(t *testing.T) {
	cases := []struct {
		name string
		word uint32
		ok   bool
	}{
		{"v1 empty", 0, true},
		{"v1 at MaxFrame", MaxFrame, true},
		{"v1 at MaxFrame+1", MaxFrame + 1, false},
		{"traced at 9", TraceContextSize - 1 | traceFlag, false},
		{"traced at 10", TraceContextSize | traceFlag, true},
		{"traced at MaxFrame+10", MaxFrame + TraceContextSize | traceFlag, true},
		{"traced at MaxFrame+11", MaxFrame + TraceContextSize + 1 | traceFlag, false},
	}
	for _, c := range cases {
		n, traced, err := parseHeader(c.word)
		if (err == nil) != c.ok {
			t.Errorf("%s: parseHeader err = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if c.ok && (n != c.word&^traceFlag || traced != (c.word&traceFlag != 0)) {
			t.Errorf("%s: parseHeader = (%d, %v)", c.name, n, traced)
		}
		// Small accepted frames and every rejected header go through both
		// readers; a large accepted body would only test io.ReadFull.
		body := int(c.word &^ traceFlag)
		if c.ok && body > 64 {
			continue
		}
		if !c.ok {
			body = 64
		}
		stream := binary.LittleEndian.AppendUint32(nil, c.word)
		stream = append(stream, make([]byte, body)...)
		_, _, _, ctxErr := ReadFrameCtx(bytes.NewReader(stream))
		_, _, rawErr := ReadRawFrame(bytes.NewReader(stream))
		for reader, err := range map[string]error{"ReadFrameCtx": ctxErr, "ReadRawFrame": rawErr} {
			if (err == nil) != c.ok {
				t.Errorf("%s: %s err = %v, want ok=%v", c.name, reader, err, c.ok)
			}
		}
	}
}

// writeCounter counts the Write calls a frame writer makes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestOneWritePerFrame pins every frame writer at one Write per frame, the
// property that makes a frame one system call on a socket.
func TestOneWritePerFrame(t *testing.T) {
	msg := []byte("payload")
	tc := &TraceContext{Org: 4, Cnt: 1, Hop: 2, Parent: 3}
	var traced bytes.Buffer
	if err := WriteFrameCtx(&traced, msg, tc); err != nil {
		t.Fatal(err)
	}
	hdr, body, err := ReadRawFrame(&traced)
	if err != nil {
		t.Fatal(err)
	}
	writers := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"WriteFrame", func(w io.Writer) error { return WriteFrame(w, msg) }},
		{"WriteFrameCtx nil", func(w io.Writer) error { return WriteFrameCtx(w, msg, nil) }},
		{"WriteFrameCtx traced", func(w io.Writer) error { return WriteFrameCtx(w, msg, tc) }},
		{"WriteRawFrame", func(w io.Writer) error { return WriteRawFrame(w, hdr, body) }},
	}
	for _, c := range writers {
		var w writeCounter
		for i := 1; i <= 3; i++ {
			if err := c.write(&w); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if w.writes != i {
				t.Errorf("%s: %d Writes for %d frames", c.name, w.writes, i)
			}
		}
	}
}

// chunkReader returns its stream in fuzz-chosen pieces: each Read delivers
// 1 to 255 bytes as the next size byte says, or everything left for a size
// byte of 255 or when there are no size bytes.
type chunkReader struct {
	data, sizes []byte
	i           int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.sizes) > 0 {
		if s := r.sizes[r.i%len(r.sizes)]; s < 255 {
			n = min(n, int(s)+1)
		}
		r.i++
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzFrameStream writes a fuzz-chosen run of v1 and v2 frames into one
// stream, cuts it at a fuzz-chosen byte, and reads it back through a small
// bufio.Reader over fuzz-sized reads, the way the socket readers see it.
// Both readers must return exactly the frames wholly before the cut, each
// identical to what was written, and then an error: a clean io.EOF when
// the cut falls between frames, never a wrong frame.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{5, 0x83, 0, 0x80}, []byte("frames in a stream"), []byte{0, 3, 254}, uint16(0xFFFF))
	f.Add([]byte{0x7F, 0xFF, 1}, bytes.Repeat([]byte{9}, 300), []byte{}, uint16(200))
	f.Add([]byte{0x81, 2}, []byte("ab"), []byte{255, 0}, uint16(7))
	f.Fuzz(func(t *testing.T, layout, payload, chunks []byte, cut uint16) {
		// Each layout byte is one frame: the top bit asks for a trace
		// context, the low seven bits a message length drawn from payload.
		if len(layout) > 32 {
			layout = layout[:32]
		}
		type frame struct {
			msg    []byte
			tc     *TraceContext
			offset int
			end    int
		}
		var stream []byte
		frames := make([]frame, len(layout))
		off := 0
		for i, b := range layout {
			start := min(off, len(payload))
			end := min(start+int(b&0x7F), len(payload))
			off += int(b & 0x7F)
			fr := frame{msg: payload[start:end], offset: len(stream)}
			if b&0x80 != 0 {
				fr.tc = &TraceContext{Org: int32(i), Cnt: b, Hop: uint8(i), Parent: int32(-i)}
			}
			var buf bytes.Buffer
			if err := WriteFrameCtx(&buf, fr.msg, fr.tc); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, buf.Bytes()...)
			fr.end = len(stream)
			frames[i] = fr
		}
		at := int(cut) % (len(stream) + 1)
		if cut == 0xFFFF {
			at = len(stream)
		}
		cutStream := stream[:at]
		onBoundary := at == 0
		for _, fr := range frames {
			onBoundary = onBoundary || fr.end == at
		}
		reader := func() *bufio.Reader {
			return bufio.NewReaderSize(&chunkReader{data: cutStream, sizes: chunks}, 16)
		}
		// finish checks how a reader's pass ended after it returned got
		// frames.
		finish := func(name string, got int, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: read past the cut at %d of %d", name, at, len(stream))
			}
			if got < len(frames) && frames[got].end <= at {
				t.Fatalf("%s: stopped at frame %d of a whole prefix: %v", name, got, err)
			}
			if onBoundary != (err == io.EOF) {
				t.Fatalf("%s: cut at %d (boundary %v) ended in %v", name, at, onBoundary, err)
			}
		}

		r := reader()
		got := 0
		var err error
		for ; ; got++ {
			var msg []byte
			var tc TraceContext
			var traced bool
			if msg, tc, traced, err = ReadFrameCtx(r); err != nil {
				break
			}
			if got >= len(frames) || frames[got].end > at {
				t.Fatalf("ReadFrameCtx: frame %d read across the cut at %d", got, at)
			}
			fr := frames[got]
			if !bytes.Equal(msg, fr.msg) || traced != (fr.tc != nil) || (traced && tc != *fr.tc) {
				t.Fatalf("ReadFrameCtx: frame %d came back as %x %v %+v", got, msg, traced, tc)
			}
		}
		finish("ReadFrameCtx", got, err)

		r = reader()
		for got = 0; ; got++ {
			var hdr [4]byte
			var body []byte
			if hdr, body, err = ReadRawFrame(r); err != nil {
				break
			}
			if got >= len(frames) || frames[got].end > at {
				t.Fatalf("ReadRawFrame: frame %d read across the cut at %d", got, at)
			}
			fr := frames[got]
			if raw := append(hdr[:], body...); !bytes.Equal(raw, stream[fr.offset:fr.end]) {
				t.Fatalf("ReadRawFrame: frame %d came back as %x, want %x", got, raw, stream[fr.offset:fr.end])
			}
		}
		finish("ReadRawFrame", got, err)
	})
}
