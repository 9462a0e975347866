package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sampleSnapshot builds a representative full snapshot with every field
// class populated: the state of a made-up run after `minute` minutes.
func sampleSnapshot(minute int) *Snapshot { return sampleRecord(0, minute) }

// sampleRecord is the [from, minute) delta of that run — what a log record
// holds — so folding consecutive records equals sampleSnapshot(minute). An
// update lands every 7th minute and a routing epoch every 15th.
func sampleRecord(from, minute int) *Snapshot {
	f64s := func(scale float64) []float64 {
		out := make([]float64, 0, minute-from)
		for k := from; k < minute; k++ {
			out = append(out, scale*float64(k)+0.25)
		}
		return out
	}
	s := &Snapshot{
		From:         from,
		Minute:       minute,
		ConfigDigest: sha256.Sum256([]byte("config")),
		CityExcess:   [][]float64{f64s(1.5), f64s(-2)},
	}
	for k := from + 1; k <= minute; k++ {
		if k%7 == 0 {
			s.Updates = append(s.Updates, Update{Minute: int32(k), Letter: 'K', Peer: int32(9 + k), From: 0, To: 4})
		}
	}
	for _, l := range []byte{'C', 'K'} {
		cl := Letter{
			Letter: l,
			Routers: []Router{
				{Announced: true, OverMinutes: 2, DownSince: -1},
				{Announced: false, OverMinutes: 0, DownSince: int32(minute)},
			},
			Active:       []bool{true, minute%2 == 0},
			Overlay:      l == 'K',
			EffActive:    []bool{true, true},
			Loss:         make([][]float32, 2),
			Delay:        make([][]float32, 2),
			HasRoute:     make([][]bool, 2),
			LegitServed:  f64s(100),
			AttackServed: f64s(5000),
			RetryServed:  f64s(1),
			Responses:    f64s(99),
		}
		if from == 0 {
			cl.Epochs = append(cl.Epochs, Epoch{Start: 0, Active: []bool{true, true}})
		}
		for k := from + 1; k <= minute; k++ {
			if k%15 == 0 {
				cl.Epochs = append(cl.Epochs, Epoch{Start: int32(k), Active: []bool{true, k%2 == 0}})
			}
		}
		for si := range cl.Loss {
			for k := from; k < minute; k++ {
				cl.Loss[si] = append(cl.Loss[si], float32(k%4)/4)
				cl.Delay[si] = append(cl.Delay[si], float32(30*si+k))
				cl.HasRoute[si] = append(cl.HasRoute[si], (k+si)%3 != 0)
			}
		}
		s.Letters = append(s.Letters, cl)
	}
	return s
}

func snapshotsEqual(a, b *Snapshot) bool {
	return bytes.Equal(Encode(a), Encode(b))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot(40)
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(s, got) {
		t.Fatal("decoded snapshot differs from original")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := Encode(sampleSnapshot(40)), Encode(sampleSnapshot(40))
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of identical state differ")
	}
	if bytes.Equal(a, Encode(sampleSnapshot(50))) {
		t.Fatal("distinct states encode identically")
	}
}

// Encode must fill the buffer it sized up front and never regrow it: one
// allocation per snapshot, whatever the snapshot's size.
func TestEncodeAllocatesOnce(t *testing.T) {
	big := sampleSnapshot(40)
	for i := range big.Letters {
		l := &big.Letters[i]
		l.LegitServed = make([]float64, 100_000)
		l.Loss = append(l.Loss, make([]float32, 300_000))
		l.Delay = append(l.Delay, make([]float32, 300_000))
		l.HasRoute = append(l.HasRoute, make([]bool, 300_000))
		for j := 0; j < 500; j++ {
			l.Epochs = append(l.Epochs, Epoch{Start: int32(j), Active: make([]bool, 40)})
		}
	}
	for name, s := range map[string]*Snapshot{"empty": {}, "sample": sampleSnapshot(40), "big": big} {
		data := Encode(s)
		if bound := sizeBound(s); len(data) > bound || cap(data) != bound {
			t.Errorf("%s: encoding is %d bytes in a buffer of %d, sizeBound %d", name, len(data), cap(data), bound)
		}
		if allocs := testing.AllocsPerRun(5, func() { Encode(s) }); allocs != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", name, allocs)
		}
	}
	if n, bound := len(Encode(big)), sizeBound(big); float64(bound) > 1.01*float64(n) {
		t.Errorf("sizeBound %d is more than 1%% above the %d-byte encoding", bound, n)
	}
}

func TestDecodeEmptySnapshot(t *testing.T) {
	s := &Snapshot{Minute: 0}
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Minute != 0 || len(got.Letters) != 0 {
		t.Fatalf("round-trip of empty snapshot: %+v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := Encode(sampleSnapshot(40))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short", good[:10], ErrCorrupt},
		{"truncated body", good[:len(good)/2], ErrCorrupt},
		{"truncated trailer", good[:len(good)-5], ErrCorrupt},
		{"bad magic", append([]byte("NOTCKPT!"), good[8:]...), ErrCorrupt},
		{"flipped bit", flipBit(good, len(good)/2), ErrCorrupt},
		{"flipped trailer bit", flipBit(good, len(good)-1), ErrCorrupt},
		{"future version", reversion(good, Version+1), ErrVersion},
		{"zero version", reversion(good, 0), ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func flipBit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// reversion rewrites the version field and recomputes the trailer, so the
// version check (not the checksum) is what rejects it.
func reversion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(magic):], v)
	body := out[:len(out)-sha256.Size]
	sum := sha256.Sum256(body)
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}

// writeLog appends sampleRecord(m[i-1], m[i]) for consecutive minutes to a
// fresh log in dir.
func writeLog(t *testing.T, dir string, minutes ...int) {
	t.Helper()
	l, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	from := 0
	for _, m := range minutes {
		if err := l.Append(sampleRecord(from, m)); err != nil {
			t.Fatal(err)
		}
		from = m
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordStarts walks the log's framing (header, then length prefix +
// payload + SHA-256 per record) and returns every record's offset.
func recordStarts(data []byte) []int {
	var starts []int
	for off := len(logFormat.Magic) + 1; off+4 <= len(data); {
		starts = append(starts, off)
		off += 4 + int(binary.LittleEndian.Uint32(data[off:])) + sha256.Size
	}
	return starts
}

func loadMinute(t *testing.T, dir string, want int) {
	t.Helper()
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || !snapshotsEqual(got, sampleSnapshot(want)) {
		t.Fatalf("LoadLatest = [%d, %d), want the full state at minute %d", got.From, got.Minute, want)
	}
}

func TestWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadLatest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: err = %v, want ErrNoSnapshot", err)
	}
	// Full snapshots replace the log; deltas continue it.
	for _, m := range []int{10, 20, 30} {
		if err := Write(dir, sampleSnapshot(m)); err != nil {
			t.Fatal(err)
		}
	}
	loadMinute(t, dir, 30)
	if m, err := LatestMinute(dir); err != nil || m != 30 {
		t.Fatalf("LatestMinute = %d, %v", m, err)
	}
	if err := Write(dir, sampleRecord(30, 45)); err != nil {
		t.Fatal(err)
	}
	loadMinute(t, dir, 45)
	if err := Write(dir, sampleRecord(50, 60)); err == nil {
		t.Fatal("a delta that skips minutes 45-50 was accepted")
	}
	loadMinute(t, dir, 45)
}

// The log is the sum of its records: folding them yields the full state,
// a reopened log continues where it is told to, and records past that
// point are dropped.
func TestLogFoldsRecords(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 10, 20, 30, 40)
	loadMinute(t, dir, 40)

	l, err := OpenLog(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	loadMinute(t, dir, 20)
	if err := l.Append(sampleRecord(30, 40)); err == nil {
		t.Fatal("non-contiguous append accepted")
	}
	if err := l.Append(sampleRecord(20, 35)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	loadMinute(t, dir, 35)

	if _, err := OpenLog(dir, 25); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open at a minute no record ends at: err = %v, want ErrCorrupt", err)
	}
	// Minute 0 replaces the log, whatever it held.
	writeLog(t, dir, 5)
	loadMinute(t, dir, 5)
}

func TestLoadLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 10, 20)
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A flipped bit in the first record leaves nothing to fold.
	if err := os.WriteFile(path, flipBit(data, len(logFormat.Magic)+1+4+3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLatest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt log: err = %v, want ErrNoSnapshot", err)
	}
}

// A writer killed mid-append leaves the last record cut anywhere: at every
// byte offset the log reads as the records before it.
func TestLoadLatestTruncatedAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 10, 20, 30)
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	starts := recordStarts(data)
	for n := starts[2]; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		loadMinute(t, dir, 20)
		if m, err := LatestMinute(dir); err != nil || m != 20 {
			t.Fatalf("cut at byte %d of %d: LatestMinute = %d, %v, want 20", n, len(data), m, err)
		}
	}
}

func TestLatestMinuteMissingDir(t *testing.T) {
	if _, err := LatestMinute(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

// LatestMinute reads record heads only: on a long log it reports the last
// complete record even when an earlier payload is damaged (which LoadLatest
// must notice), ignores a half-written tail, and never modifies the file.
func TestLatestMinuteReadsHeadsOnly(t *testing.T) {
	dir := t.TempDir()
	var minutes []int
	for m := 5; m <= 600; m += 5 {
		minutes = append(minutes, m)
	}
	writeLog(t, dir, minutes...)
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := LatestMinute(dir); err != nil || m != 600 {
		t.Fatalf("LatestMinute = %d, %v, want 600 over %d records", m, err, len(minutes))
	}
	// Half of one more record after the last, and a flipped series bit in
	// the middle of the log.
	next := sampleRecord(600, 605)
	e := encoder{}
	e.body(next)
	torn := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), uint32(len(e.buf)))
	torn = append(torn, e.buf[:len(e.buf)/2]...)
	starts := recordStarts(data)
	torn[starts[len(starts)/2]+4+40] ^= 0x40 // inside the middle record's payload, past its head
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := LatestMinute(dir); err != nil || m != 600 {
		t.Fatalf("LatestMinute with a torn tail and a damaged payload = %d, %v, want 600", m, err)
	}
	got, err := LoadLatest(dir)
	if want := 5 * (len(starts) / 2); err != nil || got.Minute != want {
		t.Fatalf("LoadLatest = %v, %v, want the %d minutes before the damaged record", got, err, want)
	}
	loadMinute(t, dir, got.Minute)
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("reading the log modified it (%v)", err)
	}
}

// The kill scheduler polls a log another process is appending to: every
// poll must see a minute some record really ended at, never going backwards.
func TestLatestMinuteConcurrentWriter(t *testing.T) {
	dir := t.TempDir()
	const records, step = 120, 3
	l, err := OpenLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < records && err == nil; i++ {
			err = l.Append(sampleRecord(i*step, (i+1)*step))
		}
		done <- errors.Join(err, l.Close())
	}()
	last, polls := 0, 0
	for writing := true; writing; polls++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		m, err := LatestMinute(dir)
		if errors.Is(err, ErrNoSnapshot) {
			m = 0
		} else if err != nil {
			t.Fatalf("poll %d: %v", polls, err)
		}
		if m < last || m%step != 0 || m > records*step {
			t.Fatalf("poll %d: minute %d after %d", polls, m, last)
		}
		last = m
	}
	if last != records*step {
		t.Fatalf("final poll saw minute %d, want %d", last, records*step)
	}
	loadMinute(t, dir, records*step)
}
