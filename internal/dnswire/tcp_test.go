package dnswire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestTCPFrameRoundTrip(t *testing.T) {
	q := NewQuery(99, "example.com", TypeA, ClassINET)
	pkt, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTCP(&buf, pkt); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(pkt)+2 {
		t.Errorf("frame length = %d, want %d", buf.Len(), len(pkt)+2)
	}
	got, err := ReadTCP(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Error("round-tripped frame differs")
	}
}

func TestTCPFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTCP(&buf, make([]byte, 70000)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadTCPTruncatedStream(t *testing.T) {
	// Length claims 10 bytes, only 4 present.
	r := bytes.NewReader([]byte{0, 10, 1, 2, 3, 4})
	if _, err := ReadTCP(r, nil); err == nil {
		t.Error("want error for truncated body")
	}
	// Missing length prefix entirely.
	if _, err := ReadTCP(bytes.NewReader([]byte{0}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short header err = %v", err)
	}
}

func TestReadTCPReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTCP(&buf, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 64)
	got, err := ReadTCP(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("buffer with capacity was not reused")
	}
}

// Property: WriteTCP/ReadTCP round-trips arbitrary payloads up to 64 KiB.
func TestTCPFrameProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		var buf bytes.Buffer
		if err := WriteTCP(&buf, payload); err != nil {
			return false
		}
		got, err := ReadTCP(&buf, nil)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
