package core

// Checkpoint capture/restore for the evaluation engine.
//
// A checkpoint taken at the end of minute m-1 (Minute = m, the next minute
// to run) holds exactly the state the minute loop mutates: announcement
// state machines, the fault-overlay vector, the routing-epoch history (as
// effective announcement vectors — tables are recomputed, see below),
// per-site service-quality series, per-letter traffic series, the
// shared-fabric city load, and the BGP collector's update stream. All of
// it but the small head (routers, announcement vectors) is append-only
// once its minute has passed, so each checkpoint appends to the run's log
// only what the run added since the one before (ckptWriter), and resume
// folds the log back into one snapshot (checkpoint.LoadLatest).
// Everything else — topology, deployment, population, botnet, the RSSAC
// accumulator — is rebuilt deterministically from the Config or replayed
// from the restored per-minute series, so resuming from a checkpoint
// produces output byte-identical to the uninterrupted run.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/rootevent/anycastddos/internal/bgpmon"
	"github.com/rootevent/anycastddos/internal/checkpoint"
	"github.com/rootevent/anycastddos/internal/netsim"
	"github.com/rootevent/anycastddos/internal/topo"
)

// ErrSnapshotMismatch marks a snapshot that does not belong to the run
// being resumed: a different configuration, schedule, fault plan, or an
// engine whose shape disagrees with the serialized state. Resuming under
// the wrong configuration must fail loudly, never diverge silently.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match this configuration")

// configDigest hashes everything that determines the run's output —
// config fields, topology parameters, attack schedule, fault plan — into
// the identity a snapshot carries. Execution knobs that provably do not
// change output (worker count, routing-cache ablation, checkpoint cadence)
// are deliberately excluded, so a run checkpointed at 4 workers may resume
// at 1.
func (ev *Evaluator) configDigest() [32]byte {
	h := sha256.New()
	c := &ev.Cfg
	fmt.Fprintf(h, "seed=%d vps=%d minutes=%d botnet=%d collectors=%d raw=%q netsim=%+v",
		c.Seed, c.VPs, c.Minutes, c.BotnetOrigins, c.Collectors, c.RawLetters, c.Netsim)
	fmt.Fprintf(h, " trigger=%v hold=%d cooldown=%d flaphold=%d flapcooldown=%d",
		c.TriggerRatio, c.HoldMinutes, c.CooldownMinutes, c.FlapHold, c.FlapCooldown)
	if c.ForcePolicy != nil {
		fmt.Fprintf(h, " forcepolicy=%v", *c.ForcePolicy)
	}
	if t := c.Topology; t != nil {
		fmt.Fprintf(h, " topo{t1=%d t2=%d stubs=%d seed=%d", t.Tier1s, t.Tier2s, t.Stubs, t.Seed)
		writeSortedMap(h, "regions", t.StubRegionWeights)
		writeSortedMap(h, "ix", t.IXWeights)
		fmt.Fprintf(h, "}")
	}
	fmt.Fprintf(h, " sched=%q", ev.sched.Name)
	for _, e := range ev.sched.Events {
		fmt.Fprintf(h, " ev=%+v", e)
	}
	for lb := byte('A'); lb <= 'M'; lb++ {
		if ev.sched.Spared[lb] {
			fmt.Fprintf(h, " spared=%c", lb)
		}
	}
	if ev.flt != nil {
		p := ev.flt.Plan()
		fmt.Fprintf(h, " faults=%q", p.Name)
		for _, e := range p.Events {
			fmt.Fprintf(h, " fe=%+v", e)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// writeSortedMap renders a map deterministically (sorted by formatted key)
// into the digest stream.
func writeSortedMap[K comparable, V any](h interface{ Write([]byte) (int, error) }, tag string, m map[K]V) {
	keys := make([]string, 0, len(m))
	byKey := make(map[string]V, len(m))
	for k, v := range m {
		ks := fmt.Sprint(k)
		keys = append(keys, ks)
		byKey[ks] = v
	}
	sort.Strings(keys)
	for _, ks := range keys {
		fmt.Fprintf(h, " %s[%s]=%v", tag, ks, byKey[ks])
	}
}

// ckptWriter appends a run's checkpoints to its directory's log. It
// remembers how much of the append-only state the log already holds, so
// every record carries only the interval since the last one.
type ckptWriter struct {
	dir     string
	log     *checkpoint.Log // opened at the first checkpoint, not before
	minute  int             // the log holds the run up to this minute
	updates int             // collector updates already in the log
	epochs  []int           // per letter, epochs already in the log
	// rec is reused from record to record. Its traffic series alias engine
	// state, which the encoder reads before append returns; its site and
	// city series are the engine's steps expanded into rec's own buffers.
	rec checkpoint.Snapshot
}

// newCkptWriter starts a run's writer at minute `start`, with the engine
// state of that minute in place: everything already there is what the log
// being continued (or, at minute 0, nothing) holds.
func (ev *Evaluator) newCkptWriter(start int, states []*letterState) *ckptWriter {
	w := &ckptWriter{
		dir: ev.opts.checkpointDir, minute: start,
		updates: len(ev.Collector.Updates()), epochs: make([]int, len(states)),
	}
	w.rec = checkpoint.Snapshot{
		ConfigDigest: ev.configDigest(),
		CityExcess:   make([][]float64, len(ev.cityExcess)),
		Letters:      make([]checkpoint.Letter, len(states)),
	}
	for i, ls := range states {
		w.epochs[i] = len(ls.epochs)
		nSites := len(ls.letter.Sites)
		w.rec.Letters[i] = checkpoint.Letter{
			Letter:   ls.letter.Letter,
			Routers:  make([]checkpoint.Router, len(ls.states)),
			Loss:     make([][]float32, nSites),
			Delay:    make([][]float32, nSites),
			HasRoute: make([][]bool, nSites),
		}
	}
	return w
}

// append makes the engine state with the first `minute` minutes complete
// durable: one log record covering the minutes, epochs and collector
// updates since the previous record, plus the mutable head. The first call
// opens the log — replacing it when the run started at minute 0, continuing
// it after the record the run resumed from otherwise.
func (w *ckptWriter) append(ev *Evaluator, minute int, states []*letterState) error {
	rec, from := &w.rec, w.minute
	if w.log == nil {
		log, err := checkpoint.OpenLog(w.dir, from)
		if err != nil {
			return fmt.Errorf("core: checkpoint at minute %d: %w", minute, err)
		}
		w.log = log
	}
	rec.From, rec.Minute = from, minute
	for ci := range ev.cityExcess {
		row := rec.CityExcess[ci][:0]
		ev.cityExcess[ci].each(from, minute, func(_ int, v uint64) {
			row = append(row, math.Float64frombits(v))
		})
		rec.CityExcess[ci] = row
	}
	updates := ev.Collector.Updates()
	rec.Updates = rec.Updates[:0]
	for _, u := range updates[w.updates:] {
		rec.Updates = append(rec.Updates, checkpoint.Update{
			Minute: int32(u.Minute), Letter: u.Letter,
			Peer: int32(u.Peer), From: int32(u.From), To: int32(u.To),
		})
	}
	for i, ls := range states {
		cl := &rec.Letters[i]
		for oi := range ls.states {
			rs := ls.states[oi].router.State()
			cl.Routers[oi] = checkpoint.Router{
				Announced: rs.Announced, OverMinutes: int32(rs.OverMinutes), DownSince: int32(rs.DownSince),
			}
		}
		cl.Active = ls.active
		cl.Overlay = ls.effActive != nil
		cl.EffActive = ls.effActive
		cl.Epochs = cl.Epochs[:0]
		for _, ep := range ls.epochs[w.epochs[i]:] {
			cl.Epochs = append(cl.Epochs, checkpoint.Epoch{Start: int32(ep.Start), Active: ep.act})
		}
		for si := range ls.sites {
			loss, delay, route := cl.Loss[si][:0], cl.Delay[si][:0], cl.HasRoute[si][:0]
			ls.sites[si].each(from, minute, func(_ int, st siteState) {
				loss = append(loss, math.Float32frombits(st.loss))
				delay = append(delay, math.Float32frombits(st.delay))
				route = append(route, st.route)
			})
			cl.Loss[si], cl.Delay[si], cl.HasRoute[si] = loss, delay, route
		}
		cl.LegitServed = ls.legitServed[from:minute]
		cl.AttackServed = ls.attackServed[from:minute]
		cl.RetryServed = ls.retryServed[from:minute]
		cl.Responses = ls.responses[from:minute]
	}
	if err := w.log.Append(rec); err != nil {
		return fmt.Errorf("core: checkpoint at minute %d: %w", minute, err)
	}
	w.minute, w.updates = minute, len(updates)
	for i, ls := range states {
		w.epochs[i] = len(ls.epochs)
	}
	return nil
}

// close releases the log, if a checkpoint ever opened it.
func (w *ckptWriter) close() error {
	if w.log == nil {
		return nil
	}
	return w.log.Close()
}

// restoreSnapshot loads a snapshot into a freshly built evaluator,
// validating that it belongs to this configuration and shape. After it
// returns, runFrom(snap.Minute) continues the run exactly where the
// snapshot left off.
func (ev *Evaluator) restoreSnapshot(snap *checkpoint.Snapshot) error {
	if snap.ConfigDigest != ev.configDigest() {
		return fmt.Errorf("%w: config digest differs", ErrSnapshotMismatch)
	}
	if snap.Minute > ev.Cfg.Minutes {
		return fmt.Errorf("%w: snapshot minute %d beyond configured %d minutes",
			ErrSnapshotMismatch, snap.Minute, ev.Cfg.Minutes)
	}
	letters := ev.Deployment.SortedLetters()
	if len(snap.Letters) != len(letters) {
		return fmt.Errorf("%w: snapshot has %d letters, deployment %d",
			ErrSnapshotMismatch, len(snap.Letters), len(letters))
	}
	if len(snap.CityExcess) != len(ev.cityExcess) {
		return fmt.Errorf("%w: snapshot has %d cities, evaluator %d",
			ErrSnapshotMismatch, len(snap.CityExcess), len(ev.cityExcess))
	}
	minute := snap.Minute
	// Validate every letter's shape before mutating anything, so a
	// mismatch leaves the evaluator untouched and usable for a fresh run.
	for i, lb := range letters {
		cl := &snap.Letters[i]
		ls := ev.letters[lb]
		if cl.Letter != lb {
			return fmt.Errorf("%w: snapshot letter %c at position %d, want %c",
				ErrSnapshotMismatch, cl.Letter, i, lb)
		}
		if len(cl.Routers) != len(ls.states) || len(cl.Active) != len(ls.active) {
			return fmt.Errorf("%w: letter %c has %d uplinks, snapshot %d",
				ErrSnapshotMismatch, lb, len(ls.states), len(cl.Routers))
		}
		if cl.Overlay != (ev.flt != nil) || (cl.Overlay && len(cl.EffActive) != len(ls.active)) {
			return fmt.Errorf("%w: letter %c fault overlay disagrees with plan", ErrSnapshotMismatch, lb)
		}
		if len(cl.Loss) != len(ls.letter.Sites) {
			return fmt.Errorf("%w: letter %c has %d sites, snapshot %d",
				ErrSnapshotMismatch, lb, len(ls.letter.Sites), len(cl.Loss))
		}
		if len(cl.Epochs) == 0 {
			return fmt.Errorf("%w: letter %c snapshot has no epochs", ErrSnapshotMismatch, lb)
		}
		for j := range cl.Epochs {
			if len(cl.Epochs[j].Active) != len(ls.active) {
				return fmt.Errorf("%w: letter %c epoch %d vector length %d, want %d",
					ErrSnapshotMismatch, lb, j, len(cl.Epochs[j].Active), len(ls.active))
			}
		}
		if !prefixLens(minute, cl.LegitServed, cl.AttackServed, cl.RetryServed, cl.Responses) {
			return fmt.Errorf("%w: letter %c traffic series shorter than minute %d",
				ErrSnapshotMismatch, lb, minute)
		}
		for si := range cl.Loss {
			if len(cl.Loss[si]) != minute || len(cl.Delay[si]) != minute || len(cl.HasRoute[si]) != minute {
				return fmt.Errorf("%w: letter %c site %d service series shorter than minute %d",
					ErrSnapshotMismatch, lb, si, minute)
			}
		}
	}
	for ci := range snap.CityExcess {
		if len(snap.CityExcess[ci]) != minute {
			return fmt.Errorf("%w: city %d excess series shorter than minute %d",
				ErrSnapshotMismatch, ci, minute)
		}
	}

	for ci, row := range snap.CityExcess {
		for m, v := range row {
			ev.cityExcess[ci].set(m, math.Float64bits(v))
		}
	}
	rest := make([]bgpmon.Update, len(snap.Updates))
	for i, u := range snap.Updates {
		rest[i] = bgpmon.Update{
			Minute: int(u.Minute), Letter: u.Letter,
			Peer: topo.ASN(u.Peer), From: int(u.From), To: int(u.To),
		}
	}
	ev.Collector.RestoreUpdates(rest)
	for i, lb := range letters {
		cl := &snap.Letters[i]
		ls := ev.letters[lb]
		for oi := range ls.states {
			r := cl.Routers[oi]
			ls.states[oi].router.Restore(netsim.RouterState{
				Announced: r.Announced, OverMinutes: int(r.OverMinutes), DownSince: int(r.DownSince),
			})
		}
		copy(ls.active, cl.Active)
		if cl.Overlay {
			ls.effActive = append([]bool(nil), cl.EffActive...)
		}
		// Replay the epoch history through the live route computation:
		// tables are a pure function of the announcement vector, so the
		// replayed tables — and the memo entries holding them — are
		// bit-identical to the killed run's.
		ls.epochs = ls.epochs[:0]
		for j := range cl.Epochs {
			act := cl.Epochs[j].Active
			ent := ev.routeEntryFor(ls, act)
			ep := epoch{
				Start: int(cl.Epochs[j].Start), Table: ent.table,
				LegitFrac: ent.legitFrac, AttackFrac: ent.attackFrac,
			}
			if ev.opts.checkpointDir != "" {
				ep.act = act
			}
			ls.epochs = append(ls.epochs, ep)
		}
		ls.pending = ls.pending[:0]
		for si := range cl.Loss {
			for m, route := range cl.HasRoute[si] {
				ls.sites[si].set(m, siteState{route: route,
					loss: math.Float32bits(cl.Loss[si][m]), delay: math.Float32bits(cl.Delay[si][m])})
			}
		}
		copy(ls.legitServed, cl.LegitServed)
		copy(ls.attackServed, cl.AttackServed)
		copy(ls.retryServed, cl.RetryServed)
		copy(ls.responses, cl.Responses)
	}
	ev.replayRSSAC(minute, letters)
	return nil
}

// prefixLens reports whether every series has exactly `minute` entries.
func prefixLens(minute int, series ...[]float64) bool {
	for _, s := range series {
		if len(s) != minute {
			return false
		}
	}
	return true
}

// replayRSSAC refills the RSSAC accumulator from the restored per-minute
// series, in the exact order the engine's pass 2 records them
// (minute-outer, sorted-letter-inner), so the float accumulation sequence
// — and the finalized daily reports — match the uninterrupted run.
func (ev *Evaluator) replayRSSAC(upto int, letters []byte) {
	events := ev.sched.Events
	for minute := 0; minute < upto; minute++ {
		evIdx := int(ev.evActive[minute])
		for _, lb := range letters {
			ls := ev.letters[lb]
			if ls.flt.MonitorGapAt(minute) {
				ev.RSSAC.RecordGap(lb, minute)
			} else {
				ev.RSSAC.Record(lb, ls.rssacMinute(minute, evIdx, events))
			}
		}
	}
}

// ResumeRun builds an evaluator for cfg and continues the run recorded
// under dir: it folds the longest valid prefix of the directory's
// checkpoint log (a torn or damaged record ends the prefix; everything
// before it still counts), restores the engine state, and executes the
// remaining minutes. When the directory holds no usable checkpoint at all,
// it runs from the beginning — an empty or missing checkpoint directory
// degrades to a fresh run, not an error. A log from a different
// configuration fails with ErrSnapshotMismatch.
//
// Pass the same options as the original run; include WithCheckpoint to
// keep checkpointing during the resumed portion. The resumed run's output
// is byte-identical to an uninterrupted run of the same configuration, at
// any worker count, with or without a fault plan.
func ResumeRun(dir string, cfg Config, opts ...Option) (*Evaluator, error) {
	ev, err := NewEvaluator(cfg, opts...)
	if err != nil {
		return nil, err
	}
	snap, err := checkpoint.LoadLatest(dir)
	if errors.Is(err, checkpoint.ErrNoSnapshot) {
		return ev, ev.Run()
	}
	if err != nil {
		return ev, fmt.Errorf("core: resume from %s: %w", dir, err)
	}
	if err := ev.restoreSnapshot(snap); err != nil {
		return ev, fmt.Errorf("core: resume from %s: %w", dir, err)
	}
	ev.ran = true
	if err := ev.runFrom(ev.opts.ctx, snap.Minute); err != nil {
		return ev, err
	}
	return ev, nil
}
