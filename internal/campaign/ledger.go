package campaign

// The campaign ledger: a crash-safe, append-only record of scenario
// lifecycle events, built on the shared internal/ledger framing (every
// record is length-prefixed canonical JSON followed by its SHA-256, every
// append fsynced), so a SIGKILL of the runner can at worst tear the final
// record — which recovery detects and truncates away. A resumed campaign
// replays the ledger to learn which scenarios completed (with their
// recorded outcomes, reused verbatim so the final report is
// byte-identical), which were quarantined, and which were in flight and
// must be re-queued.

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rootevent/anycastddos/internal/ledger"
)

// ledgerFormat identifies campaign ledger files: the RDNSCLGR magic and the
// current record-format version byte.
var ledgerFormat = ledger.Format{Magic: "RDNSCLGR", Version: 1}

// ledgerMagic is kept for tests that construct raw ledger headers.
const ledgerMagic = "RDNSCLGR"

// ErrLedgerVersion marks a ledger written by an incompatible format
// version.
var ErrLedgerVersion = errors.New("campaign: unsupported ledger version")

// ErrSpecMismatch marks a resume whose spec digest differs from the one
// the ledger was started with.
var ErrSpecMismatch = errors.New("campaign: ledger belongs to a different spec")

// Record types, in lifecycle order.
const (
	// RecSpec is the first record: the campaign's spec digest.
	RecSpec = "spec"
	// RecStart marks one scenario attempt starting.
	RecStart = "start"
	// RecFail marks one attempt failing, with its classification.
	RecFail = "fail"
	// RecDone marks a scenario completing, with its outcome JSON.
	RecDone = "done"
	// RecQuarantine marks a scenario abandoned after exhausting retries.
	RecQuarantine = "quarantine"
)

// Record is one ledger entry.
type Record struct {
	Type     string `json:"type"`
	Scenario string `json:"scenario,omitempty"`
	// Attempt is the 0-based attempt number for start/fail records.
	Attempt int `json:"attempt,omitempty"`
	// Class is the failure classification for fail/quarantine records:
	// "panic", "timeout", "stall", "canceled", "exit:N", "signal", or
	// "bad-outcome".
	Class string `json:"class,omitempty"`
	// Detail is a human-readable failure description (tail of the child's
	// output); never part of the report.
	Detail string `json:"detail,omitempty"`
	// SpecDigest is set on spec records.
	SpecDigest string `json:"spec_digest,omitempty"`
	// Outcome is the scenario's outcome JSON (analysis.Outcome), recorded
	// verbatim on done records and reused verbatim by resumed reports.
	Outcome json.RawMessage `json:"outcome,omitempty"`
}

// Ledger is an open, append-positioned campaign ledger. Append is safe
// for concurrent use by the runner's scenario workers.
type Ledger struct {
	l *ledger.Ledger
}

// decodeRecords unmarshals recovered payloads; the shared framing already
// verified their checksums, and the recordValid gate already rejected
// payloads that do not parse, so these unmarshals cannot fail.
func decodeRecords(payloads [][]byte) []Record {
	recs := make([]Record, 0, len(payloads))
	for _, p := range payloads {
		var rec Record
		if err := json.Unmarshal(p, &rec); err != nil {
			break // unreachable: recordValid filtered this payload
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	return recs
}

// recordValid ends the readable prefix at the first checksum-valid payload
// that nonetheless fails to parse as a Record — preserving the recovery
// semantics the runner has always had.
func recordValid(payload []byte) bool {
	var rec Record
	return json.Unmarshal(payload, &rec) == nil
}

// translateErr maps shared-framing errors onto the campaign sentinels.
func translateErr(err error) error {
	if errors.Is(err, ledger.ErrVersion) {
		return fmt.Errorf("%w: %w", ErrLedgerVersion, err)
	}
	return err
}

// OpenLedger opens (creating if absent) the ledger at path, recovers the
// readable record prefix, truncates any torn or corrupt tail, and returns
// the ledger positioned for appends plus the recovered records. A torn
// final record — the expected debris of a SIGKILLed runner — is silently
// discarded; so is anything after a corrupted record, since nothing past
// a bad length prefix can be trusted.
func OpenLedger(path string) (*Ledger, []Record, error) {
	l, payloads, err := ledger.Open(path, ledgerFormat, recordValid)
	if err != nil {
		return nil, nil, translateErr(err)
	}
	return &Ledger{l: l}, decodeRecords(payloads), nil
}

// ReadRecords recovers the readable records of the ledger at path without
// opening it for writing (and without truncating the tail) — the
// observation path used by the soak harness while a runner is live. A
// missing file reads as an empty ledger.
func ReadRecords(path string) ([]Record, error) {
	payloads, err := ledger.Read(path, ledgerFormat, recordValid)
	if err != nil {
		return nil, translateErr(err)
	}
	return decodeRecords(payloads), nil
}

// Append encodes, writes, and fsyncs one record. The write is a single
// contiguous buffer, so a crash mid-append tears at most this record —
// exactly what recovery truncates away.
func (l *Ledger) Append(rec Record) error {
	payload, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("campaign: encode ledger record: %w", err)
	}
	if err := l.l.Append(payload); err != nil {
		return fmt.Errorf("campaign: ledger: %w", err)
	}
	return nil
}

// Close releases the ledger file.
func (l *Ledger) Close() error {
	return l.l.Close()
}

// Quarantine is one permanently-failed scenario's terminal state.
type Quarantine struct {
	// Class is the final failure classification.
	Class string
	// Detail is the final failure's description.
	Detail string
	// Attempts is how many attempts failed before giving up.
	Attempts int
}

// State is the campaign position a ledger replay yields.
type State struct {
	// SpecDigest is the digest the campaign was started with ("" for a
	// fresh ledger).
	SpecDigest string
	// Done maps completed scenario IDs to their recorded outcome JSON.
	Done map[string]json.RawMessage
	// Quarantined maps permanently-failed scenario IDs to their terminal
	// state.
	Quarantined map[string]Quarantine
	// Fails counts classified attempt failures per scenario — the retry
	// budget already spent. Started-but-unresolved attempts (the runner
	// died mid-flight) deliberately do not count: the scenario is
	// re-queued at the same budget.
	Fails map[string]int
	// LastClass remembers each scenario's most recent failure class.
	LastClass map[string]string
	// InFlight lists scenarios with a start record but no terminal record
	// — the ones a resumed runner re-queues.
	InFlight map[string]bool
}

// Replay folds ledger records into campaign state.
func Replay(recs []Record) *State {
	st := &State{
		Done:        map[string]json.RawMessage{},
		Quarantined: map[string]Quarantine{},
		Fails:       map[string]int{},
		LastClass:   map[string]string{},
		InFlight:    map[string]bool{},
	}
	for _, rec := range recs {
		switch rec.Type {
		case RecSpec:
			st.SpecDigest = rec.SpecDigest
		case RecStart:
			st.InFlight[rec.Scenario] = true
		case RecFail:
			st.Fails[rec.Scenario]++
			st.LastClass[rec.Scenario] = rec.Class
			delete(st.InFlight, rec.Scenario)
		case RecDone:
			st.Done[rec.Scenario] = rec.Outcome
			delete(st.InFlight, rec.Scenario)
		case RecQuarantine:
			st.Quarantined[rec.Scenario] = Quarantine{
				Class: rec.Class, Detail: rec.Detail, Attempts: rec.Attempt,
			}
			delete(st.InFlight, rec.Scenario)
		}
	}
	return st
}
