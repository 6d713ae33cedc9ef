package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stablerank/internal/datagen"
	"stablerank/internal/dataset"
	"stablerank/internal/vecmat"
)

// stores returns both implementations so the contract tests run against each.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"file": fs, "mem": NewMemStore()}
}

// TestStoreContract exercises Put/Get/Delete/Entries/SizeBytes on both
// backends, including keys full of filename-hostile characters.
func TestStoreContract(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := `a1b2|w=[1,0.5];cos>=0.998|seed=42|n=100000|layout=65537`
			if _, err := st.Get(NSPools, key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get absent = %v, want ErrNotFound", err)
			}
			if err := st.Put(NSPools, key, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(NSPools, "other", []byte("world!")); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(NSPools, key)
			if err != nil || string(got) != "hello" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			// Overwrite replaces and re-accounts.
			if err := st.Put(NSPools, key, []byte("hi")); err != nil {
				t.Fatal(err)
			}
			if got, _ = st.Get(NSPools, key); string(got) != "hi" {
				t.Fatalf("Get after overwrite = %q", got)
			}
			entries, err := st.Entries(NSPools)
			if err != nil || len(entries) != 2 {
				t.Fatalf("Entries = %v, %v", entries, err)
			}
			keys := map[string]bool{}
			var sum int64
			for _, e := range entries {
				keys[e.Key] = true
				sum += e.Bytes
			}
			if !keys[key] || !keys["other"] {
				t.Fatalf("Entries keys = %v", entries)
			}
			if st.SizeBytes() != sum {
				t.Errorf("SizeBytes %d != entry sum %d", st.SizeBytes(), sum)
			}
			if err := st.Delete(NSPools, key); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(NSPools, key); err != nil {
				t.Fatalf("Delete absent = %v", err)
			}
			if _, err := st.Get(NSPools, key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get deleted = %v", err)
			}
			if err := st.Put("Bad NS", key, nil); err == nil {
				t.Error("Put accepted an invalid namespace")
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFileStoreReopen pins that a fresh Open over an existing directory sees
// the previous entries with the right accounting and clears stale temp files.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(NSDatasets, "alpha", []byte("payload-1")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(NSJobs, "j-1", []byte("payload-22")); err != nil {
		t.Fatal(err)
	}
	size := s1.SizeBytes()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// A stale temp file from a crashed write must be swept, not indexed.
	stale := filepath.Join(dir, NSJobs, "zzz.123.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SizeBytes() != size {
		t.Errorf("reopened SizeBytes %d, want %d", s2.SizeBytes(), size)
	}
	got, err := s2.Get(NSDatasets, "alpha")
	if err != nil || string(got) != "payload-1" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived reopen")
	}
}

// TestFileStoreQuarantine flips one payload byte on disk and checks the full
// corrupt-entry protocol: ErrCorrupt once, a .corrupt sibling kept for
// inspection, the live entry gone, and accounting shrunk.
func TestFileStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSPools, "victim", []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, NSPools, keyFilename("victim"))
	env, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)-1] ^= 0xFF
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(NSPools, "victim"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get corrupt = %v, want ErrCorrupt", err)
	}
	if _, err := s.Get(NSPools, "victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if s.SizeBytes() != 0 {
		t.Errorf("SizeBytes after quarantine = %d, want 0", s.SizeBytes())
	}
	entries, err := s.Entries(NSPools)
	if err != nil || len(entries) != 0 {
		t.Errorf("Entries after quarantine = %v, %v", entries, err)
	}
}

// TestEnvelopeRejectsMalformed walks framing failure modes below the
// checksum: truncation, wrong magic/version, lying length fields.
func TestEnvelopeRejectsMalformed(t *testing.T) {
	for _, env := range [][]byte{
		nil,
		[]byte("SRKV"),
		[]byte("XXXXxxxxxxxxxxxxxxxx"),
		append([]byte("SRKV\x09\x00\x00\x00"), make([]byte, 12)...),                                  // bad version
		append([]byte("SRKV\x01\x00\x00\x00"), []byte{0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 'x'}...), // lying length
	} {
		if _, err := verifyEnvelope(env); err == nil {
			t.Errorf("verifyEnvelope accepted %q", env)
		}
	}
}

// TestSnapshotRoundTrip pins the pool snapshot frame: bit-identical matrix
// out, ErrCorrupt (never a panic) on damaged frames.
func TestSnapshotRoundTrip(t *testing.T) {
	m := vecmat.New(3, 4)
	for i := 0; i < 3; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float64(i)*1.25 - float64(j)*math.Pi
		}
	}
	enc := EncodeSnapshot(m)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Rows() != 3 || got.Stride() != 4 {
		t.Fatalf("decoded shape %dx%d", got.Rows(), got.Stride())
	}
	for i := 0; i < 3; i++ {
		a, b := m.Row(i), got.Row(i)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
	for name, data := range map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOPE"), enc[4:]...),
		"bad version": append([]byte("SRSN\xff\x00\x00\x00"), enc[8:]...),
		"bit flip":    flipLast(enc),
		"truncated":   enc[:len(enc)-5],
	} {
		if _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeSnapshot = %v, want ErrCorrupt", name, err)
		}
	}
}

func flipLast(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 1
	return out
}

// TestCatalogRoundTrip pins generation plus bit-exact dataset content — and
// therefore a stable content hash — across encode/decode.
func TestCatalogRoundTrip(t *testing.T) {
	ds := dataset.MustNew(3)
	ds.MustAdd("x", 0.1, 0.2, 0.3)
	ds.MustAdd("y", 1.0/3.0, math.Pi, 2.5e-17)
	rec, err := EncodeDataset(7, ds)
	if err != nil {
		t.Fatal(err)
	}
	gen, got, err := DecodeDataset(rec)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 {
		t.Errorf("gen = %d, want 7", gen)
	}
	if got.Hash() != ds.Hash() {
		t.Errorf("hash changed across round trip: %x != %x", got.Hash(), ds.Hash())
	}
	if got.N() != 2 || got.D() != 3 || got.Item(1).ID != "y" {
		t.Errorf("decoded dataset = %d items x %d", got.N(), got.D())
	}
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), rec[4:]...),
		"bad csv":   append(append([]byte(nil), rec[:catalogHeaderSize]...), []byte("id,a\nbroken")...),
	} {
		if _, _, err := DecodeDataset(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeDataset = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestEncodeDatasetPinned pins the catalog record bytes: a persisted
// catalog must decode to the same dataset, and so the same snapshot keys,
// whatever the in-memory dataset layout.
func TestEncodeDatasetPinned(t *testing.T) {
	for name, c := range map[string]struct {
		gen  uint64
		ds   *dataset.Dataset
		want string
	}{
		"Figure1":     {3, dataset.Figure1(), "21d3faedeb02fff238c5aee635f26c75e4e410cb4abb9c5289bfd0abf99c6a6d"},
		"FIFA(1,300)": {7, datagen.FIFA(rand.New(rand.NewSource(1)), 300), "c4ff04e73c8a82fff2e116677d289e7b3bd99ead9685cdc59189fa13f86582a5"},
	} {
		rec, err := EncodeDataset(c.gen, c.ds)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(rec)); got != c.want {
			t.Errorf("%s: EncodeDataset sha256 %s, want %s", name, got, c.want)
		}
	}
}

// TestDatasetHash sanity-checks the content hash: equal content hashes
// equal, any content change moves it.
func TestDatasetHash(t *testing.T) {
	mk := func(id string, v float64) *dataset.Dataset {
		ds := dataset.MustNew(2)
		ds.MustAdd(id, v, 1)
		return ds
	}
	if mk("a", 0.5).Hash() != mk("a", 0.5).Hash() {
		t.Error("equal datasets hash differently")
	}
	if mk("a", 0.5).Hash() == mk("b", 0.5).Hash() {
		t.Error("id change kept the hash")
	}
	if mk("a", 0.5).Hash() == mk("a", 0.25).Hash() {
		t.Error("value change kept the hash")
	}
}

// TestKeyFilenameRoundTrip checks the filename encoding is injective and
// reversible for hostile keys.
func TestKeyFilenameRoundTrip(t *testing.T) {
	for _, key := range []string{"", "plain", "a/b\\c", "sp ace", strings.Repeat("k", 100), "\x00\xff"} {
		name := keyFilename(key)
		if strings.ContainsAny(name, "/\\ ") {
			t.Errorf("filename %q not filesystem-safe", name)
		}
		got, ok := filenameKey(name)
		if !ok || got != key {
			t.Errorf("round trip %q -> %q -> %q, %v", key, name, got, ok)
		}
	}
}
