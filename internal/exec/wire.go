package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"autopart/internal/geometry"
)

// Wire format: a compact length-prefixed binary encoding of message,
// used by Mesh streams (and so the tcp transport). One frame per message:
//
//	u32 payload length (not counting the prefix)
//	u8  kind
//	u32 from, step, launch, req
//	u16 len(region) + bytes, u16 len(field) + bytes
//	u32 interval count, then (i64 lo, i64 hi) per interval
//	u8  payload flags (bit0 scalars, bit1 indexes, bit2 ranges,
//	    bit3 present)
//	per flagged payload: u32 element count, then the data — f64 bits
//	    for scalars, i64 for indexes, (i64, i64) per range, and a
//	    packed bitset (ceil(n/8) bytes) for present
//
// All integers are little-endian. Nothing in the format depends on the
// host; decode validates every length against the remaining frame so
// corrupt or fuzzed input fails with an error instead of a panic or an
// unbounded allocation.

const (
	wireFlagScalars = 1 << iota
	wireFlagIndexes
	wireFlagRanges
	wireFlagPresent
)

// maxWireFrame bounds a frame's declared size (1 GiB): anything larger
// is a corrupt prefix, not a plausible field piece.
const maxWireFrame = 1 << 30

// appendMessage appends m's wire encoding (without the frame prefix).
func appendMessage(buf []byte, m *message) ([]byte, error) {
	if len(m.region) > math.MaxUint16 || len(m.field) > math.MaxUint16 {
		return nil, fmt.Errorf("exec: wire: region/field name too long (%d/%d bytes)", len(m.region), len(m.field))
	}
	buf = append(buf, byte(m.kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.step))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.launch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.req))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.region)))
	buf = append(buf, m.region...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.field)))
	buf = append(buf, m.field...)
	ivs := m.set.Intervals()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ivs)))
	for _, iv := range ivs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.Hi))
	}
	var flags byte
	if m.scalars != nil {
		flags |= wireFlagScalars
	}
	if m.indexes != nil {
		flags |= wireFlagIndexes
	}
	if m.ranges != nil {
		flags |= wireFlagRanges
	}
	if m.present != nil {
		flags |= wireFlagPresent
	}
	buf = append(buf, flags)
	if m.scalars != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.scalars)))
		for _, v := range m.scalars {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	if m.indexes != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.indexes)))
		for _, v := range m.indexes {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	if m.ranges != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.ranges)))
		for _, iv := range m.ranges {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.Lo))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(iv.Hi))
		}
	}
	if m.present != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.present)))
		var acc byte
		for i, b := range m.present {
			if b {
				acc |= 1 << (i % 8)
			}
			if i%8 == 7 {
				buf = append(buf, acc)
				acc = 0
			}
		}
		if len(m.present)%8 != 0 {
			buf = append(buf, acc)
		}
	}
	return buf, nil
}

// wireReader consumes a frame with bounds checks on every read.
type wireReader struct {
	data []byte
	pos  int
}

func (r *wireReader) remaining() int { return len(r.data) - r.pos }

func (r *wireReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("exec: wire: truncated frame (want %d bytes, have %d)", n, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *wireReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *wireReader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *wireReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *wireReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// count reads a u32 element count and rejects any that could not fit in
// the remaining frame at elemSize bytes per element (the alloc guard).
func (r *wireReader) count(elemSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(elemSize) > int64(r.remaining()) {
		return 0, fmt.Errorf("exec: wire: count %d exceeds frame remainder %d", n, r.remaining())
	}
	return int(n), nil
}

// decodeMessage parses one frame body. It never panics on corrupt
// input and never allocates more than the frame's own size.
func decodeMessage(data []byte) (message, error) {
	var m message
	r := &wireReader{data: data}
	kind, err := r.u8()
	if err != nil {
		return m, err
	}
	m.kind = msgKind(kind)
	header := [4]*int{&m.from, &m.step, &m.launch, &m.req}
	for _, dst := range header {
		v, err := r.u32()
		if err != nil {
			return m, err
		}
		*dst = int(v)
	}
	for _, dst := range [2]*string{&m.region, &m.field} {
		n, err := r.u16()
		if err != nil {
			return m, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return m, err
		}
		*dst = string(b)
	}
	nivs, err := r.count(16)
	if err != nil {
		return m, err
	}
	ivs := make([]geometry.Interval, nivs)
	for i := range ivs {
		lo, err := r.u64()
		if err != nil {
			return m, err
		}
		hi, err := r.u64()
		if err != nil {
			return m, err
		}
		ivs[i] = geometry.Interval{Lo: int64(lo), Hi: int64(hi)}
	}
	// FromIntervals canonicalizes, so fuzzed overlapping or unsorted
	// intervals decode to a valid set (tag verification rejects any set
	// the schedule does not expect).
	m.set = geometry.FromIntervals(ivs...)
	flags, err := r.u8()
	if err != nil {
		return m, err
	}
	if flags&wireFlagScalars != 0 {
		n, err := r.count(8)
		if err != nil {
			return m, err
		}
		m.scalars = make([]float64, n)
		for i := range m.scalars {
			v, err := r.u64()
			if err != nil {
				return m, err
			}
			m.scalars[i] = math.Float64frombits(v)
		}
	}
	if flags&wireFlagIndexes != 0 {
		n, err := r.count(8)
		if err != nil {
			return m, err
		}
		m.indexes = make([]int64, n)
		for i := range m.indexes {
			v, err := r.u64()
			if err != nil {
				return m, err
			}
			m.indexes[i] = int64(v)
		}
	}
	if flags&wireFlagRanges != 0 {
		n, err := r.count(16)
		if err != nil {
			return m, err
		}
		m.ranges = make([]geometry.Interval, n)
		for i := range m.ranges {
			lo, err := r.u64()
			if err != nil {
				return m, err
			}
			hi, err := r.u64()
			if err != nil {
				return m, err
			}
			m.ranges[i] = geometry.Interval{Lo: int64(lo), Hi: int64(hi)}
		}
	}
	if flags&wireFlagPresent != 0 {
		n, err := r.count(0)
		if err != nil {
			return m, err
		}
		packed, err := r.bytes((n + 7) / 8)
		if err != nil {
			return m, err
		}
		m.present = make([]bool, n)
		for i := range m.present {
			m.present[i] = packed[i/8]&(1<<(i%8)) != 0
		}
	}
	if r.remaining() != 0 {
		return m, fmt.Errorf("exec: wire: %d trailing bytes after message", r.remaining())
	}
	return m, nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w *bufio.Writer, m *message) error {
	body, err := appendMessage(nil, m)
	if err != nil {
		return err
	}
	if len(body) > maxWireFrame {
		return fmt.Errorf("exec: wire: frame of %d bytes exceeds limit", len(body))
	}
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame; io.EOF (clean, at a frame
// boundary) means the peer closed.
func readFrame(r *bufio.Reader) (message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("exec: wire: truncated frame prefix")
		}
		return message{}, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > maxWireFrame {
		return message{}, fmt.Errorf("exec: wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return message{}, fmt.Errorf("exec: wire: truncated frame: %w", err)
	}
	return decodeMessage(body)
}

// Control plane: the bootstrap and lifecycle frames of a multi-process
// deployment (package exec/cluster). Unlike data frames — which flow
// between workers that already agreed on a protocol during bootstrap —
// every control frame carries an explicit protocol version byte right
// after the length prefix, so a coordinator and worker from different
// builds fail the handshake with a version error instead of
// misinterpreting each other's bytes.
//
//	u32 payload length (not counting the prefix)
//	u8  WireProtoVersion
//	u8  kind
//	u32 node, nodes, steps
//	f64 bytes-per-elem
//	u16 len(text) + bytes
//	u32 address count { u16 len + bytes }
//	u32 blob length + bytes
//
// The same struct serves every kind; unused fields stay zero. Frames
// are small (the program blob is the one large payload) and infrequent,
// so uniformity beats per-kind compactness.

// WireProtoVersion is the cross-process protocol version. Bump it on
// any change to the control frames, the data frames, or the program
// encoding; mismatched peers refuse each other during bootstrap.
const WireProtoVersion = 1

// CtrlKind enumerates the control-plane frame types.
type CtrlKind uint8

// Control frame kinds, in rough bootstrap order.
const (
	// CtrlHello opens the handshake: coordinator → worker it assigns
	// the node id and run shape; worker → coordinator it answers with
	// the worker's data-plane address in Text.
	CtrlHello CtrlKind = iota + 1
	// CtrlTopology broadcasts every worker's data-plane address so the
	// workers can dial each other full-mesh.
	CtrlTopology
	// CtrlProgram carries the serialized program (EncodeProgram) in
	// Blob.
	CtrlProgram
	// CtrlReady reports a worker has decoded the program and built its
	// mesh: all peer streams are up.
	CtrlReady
	// CtrlStart releases the workers into the launch loop.
	CtrlStart
	// CtrlResult returns a worker's EncodeNodeResult blob.
	CtrlResult
	// CtrlAbort tears the run down: coordinator → worker on any peer
	// failure; worker → coordinator when the worker's own run errors.
	// Text carries the reason.
	CtrlAbort
)

func (k CtrlKind) String() string {
	switch k {
	case CtrlHello:
		return "hello"
	case CtrlTopology:
		return "topology"
	case CtrlProgram:
		return "program"
	case CtrlReady:
		return "ready"
	case CtrlStart:
		return "start"
	case CtrlResult:
		return "result"
	case CtrlAbort:
		return "abort"
	default:
		return fmt.Sprintf("CtrlKind(%d)", uint8(k))
	}
}

// Ctrl is one control-plane frame.
type Ctrl struct {
	Kind         CtrlKind
	Node         int
	Nodes        int
	Steps        int
	BytesPerElem float64
	Text         string
	Addrs        []string
	Blob         []byte
}

// ErrWireVersion marks a control frame (or stream preamble) whose
// protocol version byte does not match this build's WireProtoVersion.
var ErrWireVersion = fmt.Errorf("exec: wire: protocol version mismatch")

// AppendCtrl appends c's frame body under an explicit version byte.
// Exported tests use a foreign version to exercise rejection; real
// senders pass WireProtoVersion.
func AppendCtrl(buf []byte, version uint8, c *Ctrl) ([]byte, error) {
	buf = append(buf, version, byte(c.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Node))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Nodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Steps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.BytesPerElem))
	if len(c.Text) > math.MaxUint16 {
		return nil, fmt.Errorf("exec: wire: ctrl text of %d bytes too long", len(c.Text))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Text)))
	buf = append(buf, c.Text...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Addrs)))
	for _, a := range c.Addrs {
		if len(a) > math.MaxUint16 {
			return nil, fmt.Errorf("exec: wire: ctrl address of %d bytes too long", len(a))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Blob)))
	return append(buf, c.Blob...), nil
}

// decodeCtrl parses one control frame body. Corrupt input errors out;
// it never panics and never over-allocates.
func decodeCtrl(data []byte) (Ctrl, error) {
	var c Ctrl
	r := &wireReader{data: data}
	v, err := r.u8()
	if err != nil {
		return c, err
	}
	if v != WireProtoVersion {
		return c, fmt.Errorf("%w: peer speaks version %d, this build speaks %d", ErrWireVersion, v, WireProtoVersion)
	}
	kind, err := r.u8()
	if err != nil {
		return c, err
	}
	if kind < byte(CtrlHello) || kind > byte(CtrlAbort) {
		return c, fmt.Errorf("exec: wire: unknown ctrl kind %d", kind)
	}
	c.Kind = CtrlKind(kind)
	for _, dst := range [3]*int{&c.Node, &c.Nodes, &c.Steps} {
		v, err := r.u32()
		if err != nil {
			return c, err
		}
		*dst = int(int32(v))
	}
	bits, err := r.u64()
	if err != nil {
		return c, err
	}
	c.BytesPerElem = math.Float64frombits(bits)
	n, err := r.u16()
	if err != nil {
		return c, err
	}
	text, err := r.bytes(int(n))
	if err != nil {
		return c, err
	}
	c.Text = string(text)
	naddrs, err := r.count(2)
	if err != nil {
		return c, err
	}
	for i := 0; i < naddrs; i++ {
		an, err := r.u16()
		if err != nil {
			return c, err
		}
		a, err := r.bytes(int(an))
		if err != nil {
			return c, err
		}
		c.Addrs = append(c.Addrs, string(a))
	}
	blobLen, err := r.count(1)
	if err != nil {
		return c, err
	}
	blob, err := r.bytes(blobLen)
	if err != nil {
		return c, err
	}
	if blobLen > 0 {
		c.Blob = append([]byte(nil), blob...)
	}
	if r.remaining() != 0 {
		return c, fmt.Errorf("exec: wire: %d trailing bytes after ctrl frame", r.remaining())
	}
	return c, nil
}

// WriteCtrl writes one length-prefixed control frame and flushes it to
// w in a single Write (control conns have one writer at a time, so the
// frame lands atomically enough for interleaved readers).
func WriteCtrl(w io.Writer, c *Ctrl) error {
	return writeCtrlVersion(w, WireProtoVersion, c)
}

// writeCtrlVersion is WriteCtrl with an explicit version byte; tests
// use it to present a foreign protocol version.
func writeCtrlVersion(w io.Writer, version uint8, c *Ctrl) error {
	body, err := AppendCtrl(nil, version, c)
	if err != nil {
		return err
	}
	if len(body) > maxWireFrame {
		return fmt.Errorf("exec: wire: ctrl frame of %d bytes exceeds limit", len(body))
	}
	frame := make([]byte, 4, 4+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	_, err = w.Write(frame)
	return err
}

// ReadCtrl reads one length-prefixed control frame. io.EOF (clean, at a
// frame boundary) means the peer closed the control conn.
func ReadCtrl(r io.Reader) (Ctrl, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("exec: wire: truncated ctrl frame prefix")
		}
		return Ctrl{}, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > maxWireFrame {
		return Ctrl{}, fmt.Errorf("exec: wire: ctrl frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Ctrl{}, fmt.Errorf("exec: wire: truncated ctrl frame: %w", err)
	}
	return decodeCtrl(body)
}
