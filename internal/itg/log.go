package itg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// Payload layout: the application header D-ITG embeds in every packet so
// the decoder can correlate sender and receiver logs.
//
//	kind    (1 byte)  data or echo
//	flowID  (4 bytes)
//	seq     (4 bytes)
//	txTime  (8 bytes) nanoseconds of virtual time at transmission
//
// Packets are padded to the PS-process size.
const (
	KindData byte = 1
	KindEcho byte = 2

	// MinPayload is the application header size; PS samples below it
	// are clamped up.
	MinPayload = 17
)

// ErrShortPayload reports a packet too small to carry the header.
var ErrShortPayload = errors.New("itg: payload too short")

// EncodePayload builds a payload of exactly size bytes (>= MinPayload).
func EncodePayload(kind byte, flowID, seq uint32, txTime time.Duration, size int) []byte {
	if size < MinPayload {
		size = MinPayload
	}
	return EncodePayloadInto(make([]byte, size), kind, flowID, seq, txTime)
}

// EncodePayloadInto writes the application header into b and zeroes the
// padding after it. b may be a recycled buffer: the padding must be
// cleared explicitly because HDLC escaping is content-dependent — stale
// bytes would change the on-wire frame size and therefore the timing of
// every later event. len(b) must be >= MinPayload.
func EncodePayloadInto(b []byte, kind byte, flowID, seq uint32, txTime time.Duration) []byte {
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:], flowID)
	binary.BigEndian.PutUint32(b[5:], seq)
	binary.BigEndian.PutUint64(b[9:], uint64(txTime))
	clear(b[MinPayload:])
	return b
}

// DecodePayload extracts the header from a payload.
func DecodePayload(b []byte) (kind byte, flowID, seq uint32, txTime time.Duration, err error) {
	if len(b) < MinPayload {
		return 0, 0, 0, 0, ErrShortPayload
	}
	return b[0], binary.BigEndian.Uint32(b[1:]),
		binary.BigEndian.Uint32(b[5:]),
		time.Duration(binary.BigEndian.Uint64(b[9:])), nil
}

// Record is one log entry: a packet observed at a measurement point.
type Record struct {
	FlowID uint32
	Seq    uint32
	Size   int // payload bytes
	TxTime time.Duration
	RxTime time.Duration // zero in sender logs
}

// Log is an in-memory packet log (ITGSend/ITGRecv write the same shape
// to disk; Encode/Decode provide that persistence).
type Log struct {
	Records []Record
}

// Add appends a record.
func (l *Log) Add(r Record) { l.Records = append(l.Records, r) }

// Reserve grows the log's capacity, if needed, to hold n more records
// without reallocating.
func (l *Log) Reserve(n int) { l.Records = slices.Grow(l.Records, n) }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.Records) }

// RetainedBytes reports the memory the log pins: the backing array of
// Records (32 bytes each — two uint32, one int, two time.Duration).
// This is the O(packets) cost the streaming decoder exists to avoid;
// the analysis benchmark records it next to the decoder's footprint.
func (l *Log) RetainedBytes() int { return 32 * cap(l.Records) }

// logMagic identifies the binary log format ("ITGL" + version 1).
var logMagic = [4]byte{'I', 'T', 'G', 1}

const recordSize = 4 + 4 + 4 + 8 + 8

// maxLogPrealloc caps the records DecodeLog reserves before reading
// them (128 KiB of Records).
const maxLogPrealloc = 4096

// Encode writes the log in the binary format.
func (l *Log) Encode(w io.Writer) error {
	if _, err := w.Write(logMagic[:]); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(l.Records)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, recordSize)
	for _, r := range l.Records {
		binary.BigEndian.PutUint32(buf[0:], r.FlowID)
		binary.BigEndian.PutUint32(buf[4:], r.Seq)
		binary.BigEndian.PutUint32(buf[8:], uint32(r.Size))
		binary.BigEndian.PutUint64(buf[12:], uint64(r.TxTime))
		binary.BigEndian.PutUint64(buf[20:], uint64(r.RxTime))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// DecodeLog reads a log written by Encode.
func DecodeLog(r io.Reader) (*Log, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("itg: reading log magic: %w", err)
	}
	if magic != logMagic {
		return nil, fmt.Errorf("itg: not an ITG log (magic %x)", magic)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("itg: reading log header: %w", err)
	}
	// The header's count is untrusted until the records arrive: reserve
	// at most maxLogPrealloc up front and grow with the input beyond
	// that, so a forged count cannot allocate more than the reader
	// actually supplies.
	n := binary.BigEndian.Uint32(hdr[:])
	l := &Log{Records: make([]Record, 0, min(n, maxLogPrealloc))}
	buf := make([]byte, recordSize)
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("itg: truncated log at record %d: %w", i, err)
		}
		l.Add(Record{
			FlowID: binary.BigEndian.Uint32(buf[0:]),
			Seq:    binary.BigEndian.Uint32(buf[4:]),
			Size:   int(binary.BigEndian.Uint32(buf[8:])),
			TxTime: time.Duration(binary.BigEndian.Uint64(buf[12:])),
			RxTime: time.Duration(binary.BigEndian.Uint64(buf[20:])),
		})
	}
	return l, nil
}

// Rebase subtracts start from every timestamp in place and returns l,
// so window 0 aligns with the flow start rather than the simulation
// origin (experiments dial for several seconds before the first packet
// departs). A zero RxTime (sender logs) stays zero.
func (l *Log) Rebase(start time.Duration) *Log {
	for i := range l.Records {
		r := &l.Records[i]
		r.TxTime -= start
		if r.RxTime != 0 {
			r.RxTime -= start
		}
	}
	return l
}

// FilterFlow returns the sub-log containing only records of the given
// flow — decode multi-flow logs one flow at a time, like `ITGDec -f`.
func (l *Log) FilterFlow(flowID uint32) *Log {
	out := &Log{}
	for _, r := range l.Records {
		if r.FlowID == flowID {
			out.Add(r)
		}
	}
	return out
}
