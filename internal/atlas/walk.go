package atlas

import "github.com/rootevent/anycastddos/internal/chaos"

// WalkWorld is a World that can answer a whole walk — one VP's probes of one
// letter at first, first+interval, ... — in a single call. RunContext
// discovers the method on the World it is given, the way io.Copy discovers
// io.WriterTo, and otherwise adapts the World by probing it one minute at a
// time; the two must be the same world (probe i of the walk is ProbeOutcome
// at minute first+i*interval), which is what lets a per-minute oracle check
// a walk.
type WalkWorld interface {
	World
	// ProbeWalk answers the walk's len(w.Probes) probes: it assigns every
	// element of w.Probes, element i for minute first+i*interval. It must
	// not resize w.Probes or keep w.
	ProbeWalk(vp *VP, letter byte, first, interval int, w *Walk)
}

// WalkProbe is one probe's answer inside a Walk: an Outcome without
// pointers. The identity string lives in the walk's identity table, so a
// walk's probes are plain 24-byte stores and the table holds each distinct
// string once.
type WalkProbe struct {
	RTTms float64
	Site  int32
	// Identity names the reply's identity string in the walk's table (as
	// returned by Walk.AddIdentities); 0 is a reply without one.
	Identity uint32
	Server   int16
	Status   Status
}

// Set assigns every field of the probe, each with a store of its own (a
// WalkProbe literal is assembled in a temporary and copied, which costs the
// walk kernel a store-forwarding stall per probe).
func (p *WalkProbe) Set(status Status, site, server int, rttMs float64, identity uint32) {
	p.RTTms = rttMs
	p.Site = int32(site)
	p.Identity = identity
	p.Server = int16(server)
	p.Status = status
}

// Walk is the outcome buffer of one (VP, letter) walk. A campaign shard owns
// one and reuses it for every walk, so a walk allocates nothing.
type Walk struct {
	// Probes holds the walk's answers in probe order. Reset sizes it; the
	// world assigns every element.
	Probes []WalkProbe

	// ids is the identity table: Identity n is ids[n-1]. It only grows
	// within a walk, so an Identity always names the string it was made for.
	ids []string
	// verdict[n-1] memoises chaos.Matches for Identity n during cleaning.
	verdict []identityVerdict
	// slot[s] is the Identity the per-probe adapter (perProbe) last interned
	// for a reply whose server index is s modulo len(slot) — a hint where to
	// look for the string again, trusted only after comparing the strings.
	slot [8]uint32
}

type identityVerdict uint8

const (
	unchecked identityVerdict = iota
	valid
	invalid
)

// Reset empties the identity table and sizes Probes for a walk of n probes.
// The probes' contents are unspecified until the world assigns them.
func (w *Walk) Reset(n int) {
	if cap(w.Probes) < n {
		w.Probes = make([]WalkProbe, n)
	}
	w.Probes = w.Probes[:n]
	if w.ids == nil {
		// Room for the identities of a usual walk, so that a shard's first
		// walks do not grow the tables an entry at a time.
		w.ids = make([]string, 0, 32)
		w.verdict = make([]identityVerdict, 0, 32)
	}
	w.ids = w.ids[:0]
	w.slot = [8]uint32{}
}

// AddIdentities appends txts to the walk's identity table and returns the
// Identity of txts[0]; txts[i] is that plus i. A world registers the strings
// a site's servers answer with when the walk reaches the site and then names
// one per probe by index. An empty string is a reply without an identity,
// like Identity 0.
func (w *Walk) AddIdentities(txts []string) uint32 {
	base := uint32(len(w.ids)) + 1
	w.ids = append(w.ids, txts...)
	return base
}

// Outcome returns probe i as the Outcome a per-probe World would have given.
func (w *Walk) Outcome(i int) Outcome {
	p := &w.Probes[i]
	out := Outcome{Status: p.Status, Site: int(p.Site), Server: int(p.Server), RTTms: p.RTTms}
	if p.Identity != 0 {
		out.ChaosTXT = w.ids[p.Identity-1]
	}
	return out
}

// intern returns the Identity of a per-probe World's identity string,
// adding it to the table unless the slot its server index selects already
// names it: replies from one server carry one string, so the slot nearly
// always does. A slot whose string differs is pointed at a fresh table
// entry, never edited, so probes already stored keep their strings.
func (w *Walk) intern(server int, txt string) uint32 {
	if txt == "" {
		return 0
	}
	s := &w.slot[uint(server)%uint(len(w.slot))]
	if *s == 0 || w.ids[*s-1] != txt {
		w.ids = append(w.ids, txt)
		*s = uint32(len(w.ids))
	}
	return *s
}

// perProbe makes a WalkWorld of a World that only answers single probes, so
// the campaign has one way to ask and one buffer to clean and record from.
type perProbe struct{ World }

// ProbeWalk asks the world for the walk's probes one minute at a time.
//
//repolint:hot
func (a perProbe) ProbeWalk(vp *VP, letter byte, first, interval int, w *Walk) {
	minute := first
	for i := range w.Probes {
		out := a.ProbeOutcome(vp, letter, minute)
		w.Probes[i].Set(out.Status, out.Site, out.Server, out.RTTms, w.intern(out.Server, out.ChaosTXT))
		minute += interval
	}
}

// beginCleaning forgets the previous walk's verdicts and makes room for one
// per identity of this walk.
func (w *Walk) beginCleaning() {
	n := len(w.ids)
	if cap(w.verdict) < n {
		w.verdict = make([]identityVerdict, n, 2*n)
	}
	w.verdict = w.verdict[:n]
	clear(w.verdict)
}

// matches reports chaos.Matches(letter, identity string of id), validating
// each table entry at most once per walk. An Identity names one string for
// the whole walk, so the memoised verdict is exactly chaos.Matches's for any
// World.
func (w *Walk) matches(letter byte, id uint32) bool {
	if v := w.verdict[id-1]; v != unchecked {
		return v == valid
	}
	return w.validate(letter, id)
}

func (w *Walk) validate(letter byte, id uint32) bool {
	txt := w.ids[id-1]
	ok := txt == "" || chaos.Matches(letter, txt)
	w.verdict[id-1] = invalid
	if ok {
		w.verdict[id-1] = valid
	}
	return ok
}
