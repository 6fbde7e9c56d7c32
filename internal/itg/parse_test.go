package itg

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestDecodeLogForgedCountAllocatesBounded feeds DecodeLog a header
// that claims 2^32-1 records and carries none: the count must not size
// an allocation (that alone asked for ~137 GB), and the missing records
// must read as a truncated log.
func TestDecodeLogForgedCountAllocatesBounded(t *testing.T) {
	forged := []byte{'I', 'T', 'G', 1, 0xff, 0xff, 0xff, 0xff}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeLog(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("forged count over an empty body: err = %v, want a truncated-log EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding an 8-byte log allocated %d bytes", got)
	}
}

// FuzzDecodeLog: arbitrary bytes never panic DecodeLog, and whatever it
// accepts re-encodes to exactly the bytes it consumed (magic, count
// and count records; trailing input is not part of the log).
func FuzzDecodeLog(f *testing.F) {
	l := &Log{}
	l.Add(Record{FlowID: 1, Seq: 2, Size: 90, TxTime: time.Second, RxTime: time.Second + 30*time.Millisecond})
	l.Add(Record{FlowID: 7, Seq: 0xffffffff, Size: 1 << 20, TxTime: -1})
	var seed bytes.Buffer
	if err := l.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(append(seed.Bytes(), 0xde, 0xad))
	f.Add([]byte{'I', 'T', 'G', 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{'I', 'T', 'G', 1, 0, 0, 0, 0})
	f.Add([]byte("ITG"))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeLog(bytes.NewReader(b))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatal(err)
		}
		if n := out.Len(); n > len(b) || !bytes.Equal(out.Bytes(), b[:n]) {
			t.Fatalf("re-encoded %d records as %x, input began %x", got.Len(), out.Bytes(), b[:min(out.Len(), len(b))])
		}
	})
}

// FuzzDecodePayload: arbitrary bytes never panic DecodePayload, inputs
// shorter than the header are rejected, and an accepted header
// re-encodes to the same bytes.
func FuzzDecodePayload(f *testing.F) {
	f.Add(EncodePayload(KindData|flagEchoRequest, 1, 42, 3*time.Second, 90))
	f.Add(EncodePayload(KindEcho, 0xffffffff, 0, -1, MinPayload))
	f.Add(make([]byte, MinPayload-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, flowID, seq, txTime, err := DecodePayload(b)
		if len(b) < MinPayload {
			if !errors.Is(err, ErrShortPayload) {
				t.Fatalf("%d-byte payload: err = %v, want ErrShortPayload", len(b), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte payload rejected: %v", len(b), err)
		}
		if again := EncodePayload(kind, flowID, seq, txTime, len(b)); !bytes.Equal(again[:MinPayload], b[:MinPayload]) {
			t.Fatalf("header %x re-encoded as %x", b[:MinPayload], again[:MinPayload])
		}
	})
}
