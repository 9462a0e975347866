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

// sampleSnapshot builds a representative snapshot with every field class
// populated, parameterized so tests can produce distinguishable states.
func sampleSnapshot(minute int) *Snapshot {
	s := &Snapshot{
		Minute:       minute,
		ConfigDigest: sha256.Sum256([]byte("config")),
		CityExcess: [][]float64{
			{0, 1.5, 2.25},
			{0.5, 0, float64(minute)},
		},
		Updates: []Update{
			{Minute: 3, Letter: 'C', Peer: 17, From: 2, To: 1},
			{Minute: int32(minute), Letter: 'K', Peer: 9, From: 0, To: 4},
		},
	}
	for _, l := range []byte{'C', 'K'} {
		s.Letters = append(s.Letters, Letter{
			Letter: l,
			Routers: []Router{
				{Announced: true, OverMinutes: 2, DownSince: -1},
				{Announced: false, OverMinutes: 0, DownSince: int32(minute)},
			},
			Active:       []bool{true, false},
			Overlay:      l == 'K',
			EffActive:    []bool{true, true},
			Epochs:       []Epoch{{Start: 0, Active: []bool{true, true}}, {Start: int32(minute / 2), Active: []bool{true, false}}},
			Loss:         [][]float32{{0, 0.25, 0.5}, {1, 0, 0}},
			Delay:        [][]float32{{30, 31, 32}, {90, 91, 92}},
			HasRoute:     [][]bool{{true, true, false}, {false, true, true}},
			LegitServed:  []float64{100, 101, 102.5},
			AttackServed: []float64{0, 5000, 4999.5},
			RetryServed:  []float64{1, 2, 3},
			Responses:    []float64{99, 98, 97},
		})
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

func TestWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadLatest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: err = %v, want ErrNoSnapshot", err)
	}
	for _, m := range []int{10, 20, 30} {
		if err := Write(dir, sampleSnapshot(m)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Minute != 30 {
		t.Fatalf("LoadLatest minute = %d, want 30", got.Minute)
	}
	if m, err := LatestMinute(dir); err != nil || m != 30 {
		t.Fatalf("LatestMinute = %d, %v", m, err)
	}
}

func TestWritePrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	for _, m := range []int{10, 20, 30, 40, 50} {
		if err := Write(dir, sampleSnapshot(m)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != keepSnapshots {
		t.Fatalf("%d snapshot files on disk, want %d: %v", len(names), keepSnapshots, names)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != keepSnapshots || m.Entries[len(m.Entries)-1].Minute != 50 {
		t.Fatalf("manifest entries: %+v", m.Entries)
	}
}

// TestLoadLatestFallsBackToPreviousGood is the torn-write contract: when
// the newest snapshot file is truncated on disk, LoadLatest must return
// the previous generation rather than failing.
func TestLoadLatestFallsBackToPreviousGood(t *testing.T) {
	dir := t.TempDir()
	for _, m := range []int{10, 20} {
		if err := Write(dir, sampleSnapshot(m)); err != nil {
			t.Fatal(err)
		}
	}
	newest := filepath.Join(dir, snapName(20))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Minute != 10 {
		t.Fatalf("fallback minute = %d, want 10", got.Minute)
	}
}

// TestLoadLatestSurvivesTornManifest: with the manifest replaced by
// garbage, the directory scan must still find the newest self-validating
// snapshot.
func TestLoadLatestSurvivesTornManifest(t *testing.T) {
	dir := t.TempDir()
	for _, m := range []int{10, 20} {
		if err := Write(dir, sampleSnapshot(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Minute != 20 {
		t.Fatalf("scan fallback minute = %d, want 20", got.Minute)
	}
	// And the next Write rebuilds a usable manifest.
	if err := Write(dir, sampleSnapshot(30)); err != nil {
		t.Fatal(err)
	}
	if m, err := LatestMinute(dir); err != nil || m != 30 {
		t.Fatalf("after manifest rebuild: LatestMinute = %d, %v", m, err)
	}
}

func TestLoadLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, sampleSnapshot(10)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(10)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLatest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt dir: err = %v, want ErrNoSnapshot", err)
	}
}

func TestLatestMinuteMissingDir(t *testing.T) {
	if _, err := LatestMinute(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}
