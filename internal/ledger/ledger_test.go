package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var testFormat = Format{Magic: "TESTLGR0", Version: 1}

func writeTestLedger(t *testing.T, payloads [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.bin")
	l, got, err := Open(path, testFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh ledger returned %d payloads", len(got))
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testPayloads() [][]byte {
	return [][]byte{
		[]byte(`{"a":1}`),
		[]byte(`{"b":"two"}`),
		[]byte(`{"c":[3,4,5]}`),
	}
}

func TestRoundTrip(t *testing.T) {
	want := testPayloads()
	path := writeTestLedger(t, want)
	_, got, err := openAndClose(t, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("payload %d: got %q want %q", i, got[i], want[i])
		}
	}
	ro, err := Read(path, testFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro) != len(want) {
		t.Fatalf("Read recovered %d payloads, want %d", len(ro), len(want))
	}
}

func openAndClose(t *testing.T, path string, validate Validate) (*Ledger, [][]byte, error) {
	t.Helper()
	l, got, err := Open(path, testFormat, validate)
	if err != nil {
		return nil, nil, err
	}
	if cerr := l.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return l, got, nil
}

func TestTornTailTruncated(t *testing.T) {
	want := testPayloads()
	path := writeTestLedger(t, want)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncated prefix recovers to a clean prefix of the payloads.
	for cut := 1; cut <= 40 && cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, err := openAndClose(t, path, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) >= len(want) {
			t.Fatalf("cut %d: torn tail not discarded (%d payloads)", cut, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: payload %d diverges", cut, i)
			}
		}
	}
	// After recovery the file is appendable again at the truncation point.
	if err := os.WriteFile(path, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(path, testFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("recovered %d payloads, want %d", len(got), len(want)-1)
	}
	if err := l.Append([]byte(`{"d":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = openAndClose(t, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !bytes.Equal(got[len(got)-1], []byte(`{"d":true}`)) {
		t.Fatalf("append after truncation recovery failed: %q", got)
	}
}

func TestCorruptionEndsPrefix(t *testing.T) {
	want := testPayloads()
	path := writeTestLedger(t, want)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x01
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, got, err := openAndClose(t, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(want) {
		t.Fatalf("mid-file corruption not detected (%d payloads)", len(got))
	}
}

func TestValidateEndsPrefix(t *testing.T) {
	path := writeTestLedger(t, [][]byte{[]byte("good"), []byte("BAD"), []byte("good2")})
	notBad := func(p []byte) bool { return !bytes.Equal(p, []byte("BAD")) }
	_, got, err := openAndClose(t, path, notBad)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], []byte("good")) {
		t.Fatalf("validator should end the prefix at the first rejected payload: %q", got)
	}
	// The rejected record (and everything after) was truncated away: a
	// second open without the validator sees only the surviving prefix.
	_, got, err = openAndClose(t, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("validator rejection should truncate: %q", got)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "notaledger.bin")
	if err := os.WriteFile(bad, []byte("definitely not a ledger"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(bad, testFormat, nil); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: got %v, want ErrMagic", err)
	}
	future := filepath.Join(dir, "future.bin")
	if err := os.WriteFile(future, append([]byte(testFormat.Magic), 99), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(future, testFormat, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(empty, testFormat, nil)
	if err != nil {
		t.Fatalf("empty file should recover as fresh: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file yielded %d payloads", len(got))
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = Read(filepath.Join(dir, "nope.bin"), testFormat, nil)
	if err != nil || got != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", got, err)
	}
}

func TestAppendRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.bin")
	l, _, err := Open(path, testFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// Append frames into a buffer the ledger reuses: once it has grown to the
// largest record, appending allocates nothing, and every record still reads
// back intact.
func TestAppendAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.bin")
	l, _, err := Open(path, testFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, small := bytes.Repeat([]byte("x"), 4096), []byte(`{"s":1}`)
	if err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	var appendErr error
	allocs := testing.AllocsPerRun(20, func() {
		appendErr = errors.Join(appendErr, l.Append(small), l.Append(big))
	})
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if allocs != 0 {
		t.Errorf("Append allocates %v times per pair of records, want 0", allocs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path, testFormat, nil)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun runs the function once more as a warm-up.
	if want := 1 + 2*21; len(got) != want {
		t.Fatalf("read %d records, want %d", len(got), want)
	}
	for i, p := range got {
		if want := [][]byte{big, small}[i%2]; !bytes.Equal(p, want) {
			t.Fatalf("record %d reads back as %d bytes, want %d", i, len(p), len(want))
		}
	}
}

// Create replaces whatever is at the path — an earlier ledger, a foreign
// file, nothing — with an empty ledger ready for appends.
func TestCreateReplaces(t *testing.T) {
	path := writeTestLedger(t, testPayloads())
	foreign := filepath.Join(filepath.Dir(path), "foreign.bin")
	if err := os.WriteFile(foreign, []byte("definitely not a ledger"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, foreign, filepath.Join(filepath.Dir(path), "new.bin")} {
		l, err := Create(p, testFormat)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Read(p, testFormat, nil)
		if err != nil || len(got) != 1 || string(got[0]) != "fresh" {
			t.Fatalf("%s after Create + Append: %q, %v", filepath.Base(p), got, err)
		}
	}
}

// Heads returns the leading bytes of every complete record and nothing of
// a half-written one, without validating or modifying anything.
func TestHeads(t *testing.T) {
	payloads := testPayloads()
	path := writeTestLedger(t, payloads)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, n int, want ...string) {
		t.Helper()
		heads, err := Heads(path, testFormat, n)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(heads) != len(want) {
			t.Fatalf("%s: %d heads, want %d", label, len(heads), len(want))
		}
		for i := range want {
			if string(heads[i]) != want[i] {
				t.Errorf("%s: head %d = %q, want %q", label, i, heads[i], want[i])
			}
		}
	}
	check("short heads", 4, `{"a"`, `{"b"`, `{"c"`)
	check("heads longer than the payloads", 100, string(payloads[0]), string(payloads[1]), string(payloads[2]))

	// A damaged payload is not Heads' business; a torn tail ends the scan at
	// every cut, and the file is never touched.
	damaged := append([]byte(nil), data...)
	damaged[len(testFormat.Magic)+1+4+5] ^= 0xFF
	lastStart := len(data) - (4 + len(payloads[2]) + 32)
	for cut := lastStart; cut < len(data); cut++ {
		if err := os.WriteFile(path, damaged[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		heads, err := Heads(path, testFormat, 4)
		if err != nil || len(heads) != 2 {
			t.Fatalf("cut at %d of %d: %d heads, %v, want 2", cut, len(data), len(heads), err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, damaged[:cut]) {
			t.Fatalf("Heads modified the file (%v)", err)
		}
	}

	if heads, err := Heads(filepath.Join(t.TempDir(), "nope.bin"), testFormat, 4); err != nil || heads != nil {
		t.Fatalf("missing file: %q, %v", heads, err)
	}
	if err := os.WriteFile(path, []byte("definitely not a ledger"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Heads(path, testFormat, 4); !errors.Is(err, ErrMagic) {
		t.Fatalf("foreign file: got %v, want ErrMagic", err)
	}
	if err := os.WriteFile(path, append([]byte(testFormat.Magic), 99), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Heads(path, testFormat, 4); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}
