package sitemgr

// The decision journal: every state transition and routing action the
// manager takes is appended — crash-safely, on the shared internal/ledger
// framing — before the action is applied to the fabric. A SIGKILLed
// manager therefore resumes knowing each site's state and, crucially, its
// flap-damping penalty: without that, a crash-looping manager would reset
// damping on every restart and flap its sites at full speed.

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rootevent/anycastddos/internal/ledger"
)

// journalFormat identifies sitemgr journal files.
var journalFormat = ledger.Format{Magic: "RDNSSMJR", Version: 1}

// ErrJournalMismatch marks a resume against a journal written for a
// different manager configuration.
var ErrJournalMismatch = errors.New("sitemgr: journal belongs to a different deployment")

// Journal record types.
const (
	// RecMeta is the first record: the deployment identity.
	RecMeta = "meta"
	// RecTransition is one site's state change plus the action taken.
	RecTransition = "transition"
	// RecAbsorb marks a withdraw vetoed by the minimum-announced floor.
	RecAbsorb = "absorb"
)

// JournalRecord is one journal entry.
type JournalRecord struct {
	Type string `json:"type"`
	// Letter and Sites identify the deployment on meta records.
	Letter string `json:"letter,omitempty"`
	Sites  int    `json:"sites,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Tick is the manager tick the event happened on.
	Tick int `json:"tick"`
	// Site is the site index the event concerns.
	Site int `json:"site"`
	// From and To are State names on transition records.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Action is the routing action applied ("withdraw", "announce",
	// "none").
	Action string `json:"action,omitempty"`
	// Reason is a short human-readable cause ("probe+server bad",
	// "floor veto: ...").
	Reason string `json:"reason,omitempty"`
	// Penalty is the site's damping penalty after the event.
	Penalty float64 `json:"penalty"`
}

// journal wraps the shared ledger with record encoding.
type journal struct {
	l *ledger.Ledger
}

func journalRecordValid(payload []byte) bool {
	var rec JournalRecord
	return json.Unmarshal(payload, &rec) == nil
}

func decodeJournal(payloads [][]byte) []JournalRecord {
	recs := make([]JournalRecord, 0, len(payloads))
	for _, p := range payloads {
		var rec JournalRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			break // unreachable: journalRecordValid filtered this payload
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	return recs
}

// openJournal opens (creating if absent) the journal at path and returns
// the recovered records.
func openJournal(path string) (*journal, []JournalRecord, error) {
	l, payloads, err := ledger.Open(path, journalFormat, journalRecordValid)
	if err != nil {
		return nil, nil, err
	}
	return &journal{l: l}, decodeJournal(payloads), nil
}

// ReadJournal recovers the readable records of the journal at path
// without opening it for writing — the observation path for a soak
// watching a live manager. A missing file reads as an empty journal.
func ReadJournal(path string) ([]JournalRecord, error) {
	payloads, err := ledger.Read(path, journalFormat, journalRecordValid)
	if err != nil {
		return nil, err
	}
	return decodeJournal(payloads), nil
}

func (j *journal) append(rec JournalRecord) error {
	payload, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("sitemgr: encode journal record: %w", err)
	}
	if err := j.l.Append(payload); err != nil {
		return fmt.Errorf("sitemgr: journal: %w", err)
	}
	return nil
}

func (j *journal) close() error { return j.l.Close() }

// journalState is the per-site position a journal replay yields.
type journalState struct {
	state   State
	penalty float64
}

// replayJournal folds records into per-site state. It returns the replayed
// positions (indexed by site), the last tick seen, and whether the meta
// record matched the given deployment. A journal with no meta record (or
// no records at all) replays as fresh.
func replayJournal(recs []JournalRecord, letter byte, sites int, seed int64) ([]journalState, int, error) {
	st := make([]journalState, sites)
	for i := range st {
		st[i] = journalState{state: Healthy}
	}
	lastTick := 0
	sawMeta := false
	for _, rec := range recs {
		if rec.Tick > lastTick {
			lastTick = rec.Tick
		}
		switch rec.Type {
		case RecMeta:
			if rec.Letter != string(letter) || rec.Sites != sites || rec.Seed != seed {
				return nil, 0, fmt.Errorf("%w: journal is %s/%d sites/seed %d, manager is %c/%d sites/seed %d",
					ErrJournalMismatch, rec.Letter, rec.Sites, rec.Seed, letter, sites, seed)
			}
			sawMeta = true
		case RecTransition:
			if rec.Site < 0 || rec.Site >= sites {
				continue
			}
			st[rec.Site].state = stateByName(rec.To)
			st[rec.Site].penalty = rec.Penalty
		case RecAbsorb:
			if rec.Site < 0 || rec.Site >= sites {
				continue
			}
			st[rec.Site].state = Stressed
			st[rec.Site].penalty = rec.Penalty
		}
	}
	if len(recs) > 0 && !sawMeta {
		return nil, 0, fmt.Errorf("%w: journal has records but no meta header", ErrJournalMismatch)
	}
	return st, lastTick, nil
}

// stateByName inverts State.String for journal replay; unknown names map
// to Withdrawn, the safe side (the site re-proves health before serving).
func stateByName(name string) State {
	for s := State(0); s < numStates; s++ {
		if s.String() == name {
			return s
		}
	}
	return Withdrawn
}
