// Package ledger implements the repository's crash-safe append-only record
// framing, shared by the campaign runner's scenario ledger and the site
// manager's decision journal.
//
// A ledger file opens with a caller-chosen magic string and a one-byte
// format version, followed by records. Every record is a little-endian
// length prefix, the payload bytes, and the payload's SHA-256; every append
// is a single contiguous write followed by an fsync. A SIGKILL of the
// writer can therefore at worst tear the final record, which recovery
// detects and truncates away — and nothing after a corrupt record is
// trusted, since a damaged length prefix poisons all later offsets.
//
// The payload encoding is the caller's business (the campaign ledger and
// the sitemgr journal both use canonical JSON); an optional validator lets
// the owner end the readable prefix at the first payload that fails its own
// decode, keeping recovery semantics identical to the pre-extraction
// campaign ledger.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/rootevent/anycastddos/internal/atomicio"
)

// maxRecordBytes caps one record's payload so a corrupted length prefix
// cannot drive a huge allocation.
const maxRecordBytes = 16 << 20

var (
	// ErrVersion marks a ledger written by an incompatible format version.
	ErrVersion = errors.New("ledger: unsupported format version")
	// ErrMagic marks a file that opens with some other magic string.
	ErrMagic = errors.New("ledger: bad magic")
)

// Format identifies one ledger file type: its opening magic string and the
// record-format version byte that follows it.
type Format struct {
	Magic   string
	Version byte
}

// Validate is an optional payload check applied during recovery: returning
// false ends the readable prefix at (and truncates away) that record, the
// same way a checksum failure would.
type Validate func(payload []byte) bool

// Ledger is an open, append-positioned record log. Append is safe for
// concurrent use.
type Ledger struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte // Append's frame, reused under mu
}

// Open opens (creating if absent) the ledger at path, recovers the
// readable record prefix, truncates any torn or corrupt tail, and returns
// the ledger positioned for appends plus the recovered payloads. A torn
// final record — the expected debris of a SIGKILLed writer — is silently
// discarded; so is anything after a corrupted record.
func Open(path string, format Format, validate Validate) (*Ledger, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: open: %w", err)
	}
	// The file is open for writing, so even on these abort paths the Close
	// error rides along with the primary failure instead of being dropped.
	fail := func(e error) (*Ledger, [][]byte, error) {
		return nil, nil, errors.Join(e, f.Close())
	}
	payloads, good, err := recoverPrefix(f, format, validate)
	if err != nil {
		return fail(err)
	}
	if err := f.Truncate(good); err != nil {
		return fail(fmt.Errorf("ledger: truncate torn tail: %w", err))
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return fail(fmt.Errorf("ledger: seek: %w", err))
	}
	l := &Ledger{f: f}
	if good == 0 {
		if err := l.writeHeader(format); err != nil {
			return fail(err)
		}
	}
	return l, payloads, nil
}

// Create atomically replaces whatever is at path with an empty ledger and
// opens it for appends: until the rename commits, path holds its previous
// content untouched.
func Create(path string, format Format) (*Ledger, error) {
	if err := atomicio.WriteFileBytes(path, format.header()); err != nil {
		return nil, fmt.Errorf("ledger: create: %w", err)
	}
	l, _, err := Open(path, format, nil)
	return l, err
}

// Read recovers the readable payloads of the ledger at path without
// opening it for writing (and without truncating the tail) — the
// observation path for reading a live writer's log. A missing file reads
// as an empty ledger, and a half-written tail just ends the prefix.
func Read(path string, format Format, validate Validate) ([][]byte, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: read: %w", err)
	}
	defer f.Close()
	payloads, _, err := recoverPrefix(f, format, validate)
	return payloads, err
}

// recoverPrefix parses records from the start of f, returning their payloads
// along with the byte offset after the last fully-valid record (the
// truncation point). Only a wrong magic or an incompatible version is an
// error: torn and corrupt data simply ends the readable prefix.
func recoverPrefix(f *os.File, format Format, validate Validate) ([][]byte, int64, error) {
	// One buffer of the file's size, not io.ReadAll's repeated regrowth: a
	// checkpoint log runs to megabytes. A file that grows meanwhile (a live
	// writer) reads as its prefix, one that shrinks as what is left.
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("ledger: read: %w", err)
	}
	data := make([]byte, info.Size())
	n, err := io.ReadFull(f, data)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, 0, fmt.Errorf("ledger: read: %w", err)
	}
	data = data[:n]
	off, err := format.checkHeader(data, f.Name())
	if off == 0 {
		return nil, 0, err
	}
	var payloads [][]byte
	good := int64(off)
	for {
		payload, next, ok := parseRecord(data, off)
		if !ok || (validate != nil && !validate(payload)) {
			break
		}
		payloads = append(payloads, payload)
		off = next
		good = int64(off)
	}
	return payloads, good, nil
}

// header is the magic and version byte every ledger of this format opens with.
func (format Format) header() []byte { return append([]byte(format.Magic), format.Version) }

// checkHeader validates the opening bytes of a ledger file and returns the
// offset of the first record. An empty or torn header reads as an absent
// file: offset 0 and no error.
func (format Format) checkHeader(data []byte, name string) (int, error) {
	hdr := format.header()
	if len(data) < len(hdr) {
		return 0, nil
	}
	if string(data[:len(format.Magic)]) != format.Magic {
		return 0, fmt.Errorf("%w: %s is not a %s ledger", ErrMagic, name, format.Magic)
	}
	if v := data[len(format.Magic)]; v != format.Version {
		return 0, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, format.Version)
	}
	return len(hdr), nil
}

// Heads returns the first n payload bytes (all of a shorter payload) of
// every complete record of the ledger at path. It reads length prefixes and
// those bytes only: no payload is hashed and nothing is truncated, so it is
// a cheap progress poll against a live writer — whose half-written tail just
// ends the scan — and not a validity check; Read is the authority. A missing
// file reads as an empty ledger.
func Heads(path string, format Format, n int) ([][]byte, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: heads: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ledger: heads: %w", err)
	}
	size := info.Size()
	// readAt fills buf from off, or as much of it as the file still holds.
	readAt := func(buf []byte, off int64) ([]byte, error) {
		got, err := f.ReadAt(buf[:min(int64(len(buf)), size-off)], off)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("ledger: heads: %w", err)
		}
		return buf[:got], nil
	}
	data, err := readAt(make([]byte, len(format.Magic)+1), 0)
	if err != nil {
		return nil, err
	}
	hdr, err := format.checkHeader(data, path)
	if hdr == 0 {
		return nil, err
	}
	var heads [][]byte
	buf := make([]byte, 4+n)
	for off := int64(hdr); off+4 <= size; {
		if data, err = readAt(buf, off); err != nil {
			return nil, err
		}
		if len(data) < 4 {
			break
		}
		length := int64(binary.LittleEndian.Uint32(data))
		end := off + 4 + length + sha256.Size
		if length <= 0 || length > maxRecordBytes || end > size {
			break
		}
		heads = append(heads, bytes.Clone(data[4:min(int64(len(data)), 4+length)]))
		off = end
	}
	return heads, nil
}

// parseRecord reads one record's payload at off; ok is false at a clean
// end of file, a torn tail, or any corruption.
func parseRecord(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+4 > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n <= 0 || n > maxRecordBytes || off+4+n+sha256.Size > len(data) {
		return nil, 0, false
	}
	payload = data[off+4 : off+4+n]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[off+4+n:off+4+n+sha256.Size]) {
		return nil, 0, false
	}
	return payload, off + 4 + n + sha256.Size, true
}

// writeHeader emits the magic and version, durably.
func (l *Ledger) writeHeader(format Format) error {
	if _, err := l.f.Write(format.header()); err != nil {
		return fmt.Errorf("ledger: write header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: sync: %w", err)
	}
	return nil
}

// Append writes and fsyncs one payload. The write is a single contiguous
// buffer, so a crash mid-append tears at most this record — exactly what
// recovery truncates away. The frame is built in a buffer the ledger keeps,
// so a steady stream of appends allocates nothing.
func (l *Ledger) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("ledger: empty record payload")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("ledger: record of %d bytes exceeds the %d cap", len(payload), maxRecordBytes)
	}
	sum := sha256.Sum256(payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = binary.LittleEndian.AppendUint32(l.buf[:0], uint32(len(payload)))
	l.buf = append(l.buf, payload...)
	l.buf = append(l.buf, sum[:]...)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: sync: %w", err)
	}
	return nil
}

// Close releases the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
