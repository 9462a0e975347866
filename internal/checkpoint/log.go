package checkpoint

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/rootevent/anycastddos/internal/ledger"
)

// LogName is the checkpoint log's file name inside a checkpoint directory.
const LogName = "checkpoint.log"

// logFormat frames the log: ledger's header, then one length-prefixed,
// SHA-256-trailed record per checkpoint whose payload is a Snapshot body
// covering [previous record's Minute, Minute).
var logFormat = ledger.Format{Magic: "RDNSCKLG", Version: Version}

// Log is a checkpoint directory's record log, open for appends.
type Log struct {
	led    *ledger.Ledger
	minute int    // Minute of the last record, 0 for an empty log
	buf    []byte // record encoding, reused from append to append
}

// chain is the ledger.Validate that accepts records for as long as each
// starts at the minute the one before ended, up to limit.
type chain struct{ minute, limit int }

func (c *chain) next(body []byte) bool {
	from, to, ok := span(body)
	if ok = ok && from == c.minute && to <= c.limit; ok {
		c.minute = to
	}
	return ok
}

// span reads the [From, Minute) a record body opens with.
func span(body []byte) (from, minute int, ok bool) {
	d := decoder{data: body}
	from, minute = int(d.uvarint()), int(d.uvarint())
	return from, minute, d.err == nil && from >= 0 && minute >= from
}

// OpenLog opens dir's log positioned after the record that ends at minute,
// dropping whatever follows: a torn tail, or records the resuming run is
// about to recompute. Minute 0 atomically replaces the log, whatever it held.
func OpenLog(dir string, minute int) (*Log, error) {
	path := filepath.Join(dir, LogName)
	l, c := &Log{}, chain{limit: minute}
	var err error
	if minute == 0 {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			l.led, err = ledger.Create(path, logFormat)
		}
	} else {
		l.led, _, err = ledger.Open(path, logFormat, c.next)
		if l.minute = c.minute; err == nil && l.minute != minute {
			err = errors.Join(fmt.Errorf("%w: log ends at minute %d", ErrCorrupt, l.minute), l.led.Close())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open log in %s at minute %d: %w", dir, minute, err)
	}
	return l, nil
}

// Append durably adds one record, which must continue the log: s.From is
// the previous record's Minute (0 for the first), in the same run.
func (l *Log) Append(s *Snapshot) error {
	if s.From != l.minute || s.Minute < s.From {
		return fmt.Errorf("checkpoint: record [%d, %d) does not continue the log at minute %d", s.From, s.Minute, l.minute)
	}
	e := encoder{buf: l.buf[:0]}
	e.body(s)
	l.buf = e.buf
	if err := l.led.Append(e.buf); err != nil {
		return fmt.Errorf("checkpoint: append minute %d: %w", s.Minute, err)
	}
	l.minute = s.Minute
	return nil
}

// Close releases the log file.
func (l *Log) Close() error { return l.led.Close() }

// Write makes s the newest checkpoint in dir, crash-safely, in one call
// (the engine holds a Log open across a run instead): a delta continues the
// log from s.From, a full snapshot replaces the log.
func Write(dir string, s *Snapshot) error {
	l, err := OpenLog(dir, s.From)
	if err != nil {
		return err
	}
	return errors.Join(l.Append(s), l.Close())
}

// LoadLatest folds the longest valid, contiguous record prefix of dir's log
// into one full snapshot. A torn tail, a record that fails its checksum or
// decode, and a record that does not continue its predecessor each end the
// prefix. Returns ErrNoSnapshot when not even the first record survives,
// ErrVersion for a log of another format version.
func LoadLatest(dir string) (*Snapshot, error) {
	c := chain{limit: math.MaxInt}
	bodies, err := ledger.Read(filepath.Join(dir, LogName), logFormat, c.next)
	if err = logErr(dir, err); err != nil {
		return nil, err
	}
	if s := fold(bodies); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
}

// fold decodes contiguous record bodies into one snapshot, each appending
// to the fold of those before. ledger has verified every checksum, so a
// body that still does not decode, or belongs to another run or shape, ends
// the prefix like a torn one: fold again without it.
func fold(bodies [][]byte) *Snapshot {
	var acc *Snapshot
	for k, body := range bodies {
		s, err := decodeBody(body, acc)
		if err != nil {
			return fold(bodies[:k])
		}
		acc = s
	}
	return acc
}

// logErr classifies a ledger error: a foreign file under the log's name is
// no checkpoint, not a failure; another format version is ErrVersion.
func logErr(dir string, err error) error {
	switch {
	case err == nil || errors.Is(err, ledger.ErrMagic):
		return nil
	case errors.Is(err, ledger.ErrVersion):
		return fmt.Errorf("%w in %s: %v", ErrVersion, dir, err)
	}
	return fmt.Errorf("checkpoint: read log in %s: %w", dir, err)
}

// LatestMinute reports the Minute of the last complete record in dir's log
// from length prefixes and that record's leading [From, Minute) alone: no
// hashing, no decoding, no truncation, a half-written tail ignored. It is
// the cheap poll external supervisors (chaossoak's kill scheduler) run
// against a live writer; LoadLatest, which verifies, is the authority.
func LatestMinute(dir string) (int, error) {
	const spanBytes = 20 // two full-width uvarints: From, Minute
	heads, err := ledger.Heads(filepath.Join(dir, LogName), logFormat, spanBytes)
	if err = logErr(dir, err); err != nil {
		return 0, err
	}
	if len(heads) > 0 {
		if _, minute, ok := span(heads[len(heads)-1]); ok {
			return minute, nil
		}
	}
	return 0, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
}
