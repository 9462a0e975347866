package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// DNS over TCP frames each message with a 16-bit big-endian length prefix
// (RFC 1035 §4.2.2). TCP matters to this system because it is the fallback
// path response-rate limiting leaves open: suppressed answers "slip" back
// as truncated (TC=1) responses, telling genuine clients to retry over TCP
// where source addresses cannot be spoofed (§2.3 of the paper, and the
// connection-oriented-DNS defense it cites).

// ErrFrameTooLarge is returned when a message exceeds the 16-bit length.
var ErrFrameTooLarge = errors.New("dnswire: message exceeds 65535 bytes")

// WriteTCP writes one length-prefixed DNS message to w.
func WriteTCP(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return ErrFrameTooLarge
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("dnswire: tcp length: %w", err)
	}
	if _, err := w.Write(msg); err != nil {
		return fmt.Errorf("dnswire: tcp payload: %w", err)
	}
	return nil
}

// ReadTCP reads one length-prefixed DNS message from r. The buffer is
// reused when it has capacity.
func ReadTCP(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("dnswire: tcp body: %w", err)
	}
	return buf, nil
}
