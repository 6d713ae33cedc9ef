package store

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileStore is the default durable Store: one file per entry under
// root/<namespace>/, needing nothing beyond the standard library. Keys are
// arbitrary strings (analyzer keys contain '|', '=' and ','), so filenames
// are the base64url encoding of the key plus a ".kv" suffix.
//
// Every file is a checksummed envelope:
//
//	offset  size  field
//	0       4     magic "SRKV"
//	4       4     envelope version (uint32, little endian)
//	8       4     CRC-32C (Castagnoli) of the payload
//	12      8     payload length (uint64)
//	20      ...   payload
//
// Writes are crash-atomic: the envelope goes to a same-directory temp file,
// is fsynced, then renamed over the destination, so a reader (including a
// process restarted mid-write) sees either the old value or the new one,
// never a prefix. Get verifies the checksum and quarantines mismatches by
// renaming the file to a ".corrupt" sibling — the entry disappears from the
// live set, the bytes stay on disk for inspection, and the caller gets
// ErrCorrupt to trigger a rebuild.
type FileStore struct {
	root string

	mu    sync.Mutex
	sizes map[string]map[string]int64 // ns -> filename -> envelope bytes
	total int64
	dirty bool // a write happened since the last Flush
}

const (
	fileMagic       = "SRKV"
	fileVersion     = 1
	fileHeaderSize  = 4 + 4 + 4 + 8
	fileSuffix      = ".kv"
	corruptSuffix   = ".corrupt"
	maxFilePayload  = 1 << 33 // 8 GiB; rejects absurd lengths from damaged headers
	tmpSuffixFormat = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open opens (creating if needed) a file store rooted at dir and indexes the
// existing entries. Quarantined and temp files from earlier runs are ignored
// (stale temp files are removed).
func Open(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &FileStore{root: dir, sizes: make(map[string]map[string]int64)}
	nsDirs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, nd := range nsDirs {
		if !nd.IsDir() || !validNamespace(nd.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, nd.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasSuffix(name, tmpSuffixFormat) {
				os.Remove(filepath.Join(dir, nd.Name(), name))
				continue
			}
			if !strings.HasSuffix(name, fileSuffix) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			s.index(nd.Name(), name, info.Size())
		}
	}
	return s, nil
}

func (s *FileStore) index(ns, filename string, size int64) {
	m := s.sizes[ns]
	if m == nil {
		m = make(map[string]int64)
		s.sizes[ns] = m
	}
	if old, ok := m[filename]; ok {
		s.total -= old
	}
	m[filename] = size
	s.total += size
}

func (s *FileStore) unindex(ns, filename string) {
	if old, ok := s.sizes[ns][filename]; ok {
		s.total -= old
		delete(s.sizes[ns], filename)
	}
}

func keyFilename(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key)) + fileSuffix
}

func filenameKey(name string) (string, bool) {
	raw, err := base64.RawURLEncoding.DecodeString(strings.TrimSuffix(name, fileSuffix))
	if err != nil {
		return "", false
	}
	return string(raw), true
}

// Put implements Store with a checksummed write-temp-fsync-rename sequence.
func (s *FileStore) Put(ns, key string, value []byte) error {
	if !validNamespace(ns) {
		return fmt.Errorf("store: invalid namespace %q", ns)
	}
	nsDir := filepath.Join(s.root, ns)
	if err := os.MkdirAll(nsDir, 0o755); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	env := make([]byte, fileHeaderSize+len(value))
	copy(env, fileMagic)
	binary.LittleEndian.PutUint32(env[4:], fileVersion)
	binary.LittleEndian.PutUint32(env[8:], crc32.Checksum(value, crcTable))
	binary.LittleEndian.PutUint64(env[12:], uint64(len(value)))
	copy(env[fileHeaderSize:], value)

	name := keyFilename(key)
	dst := filepath.Join(nsDir, name)
	tmp, err := os.CreateTemp(nsDir, name+".*"+tmpSuffixFormat)
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	syncDir(nsDir)

	s.mu.Lock()
	s.index(ns, name, int64(len(env)))
	s.dirty = true
	s.mu.Unlock()
	return nil
}

// Get implements Store; a file that fails magic, version, length or checksum
// verification is quarantined and reported as ErrCorrupt.
func (s *FileStore) Get(ns, key string) ([]byte, error) {
	name := keyFilename(key)
	path := filepath.Join(s.root, ns, name)
	env, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %s/%s: %w", ns, key, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get %s/%s: %w", ns, key, err)
	}
	payload, verr := verifyEnvelope(env)
	if verr != nil {
		s.quarantine(ns, name, path)
		return nil, fmt.Errorf("store: %s/%s: %v: %w", ns, key, verr, ErrCorrupt)
	}
	return payload, nil
}

// verifyEnvelope checks the envelope framing and checksum, returning the
// payload. It never panics on arbitrary bytes.
func verifyEnvelope(env []byte) ([]byte, error) {
	if len(env) < fileHeaderSize {
		return nil, fmt.Errorf("truncated envelope (%d bytes)", len(env))
	}
	if string(env[:4]) != fileMagic {
		return nil, fmt.Errorf("bad magic %q", env[:4])
	}
	if v := binary.LittleEndian.Uint32(env[4:]); v != fileVersion {
		return nil, fmt.Errorf("unsupported envelope version %d", v)
	}
	n := binary.LittleEndian.Uint64(env[12:])
	if n > maxFilePayload || n != uint64(len(env)-fileHeaderSize) {
		return nil, fmt.Errorf("payload length %d does not match envelope (%d bytes)", n, len(env))
	}
	payload := env[fileHeaderSize:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(env[8:]); got != want {
		return nil, fmt.Errorf("checksum %08x, want %08x", got, want)
	}
	return payload, nil
}

// quarantine moves a damaged entry aside (replacing any previous quarantine
// of the same key) so the live set no longer contains it.
func (s *FileStore) quarantine(ns, name, path string) {
	if err := os.Rename(path, path+corruptSuffix); err != nil {
		// Renaming failed (e.g. the file vanished); removing keeps the
		// guarantee that a corrupt entry never stays live.
		os.Remove(path)
	}
	s.mu.Lock()
	s.unindex(ns, name)
	s.mu.Unlock()
}

// Delete implements Store.
func (s *FileStore) Delete(ns, key string) error {
	name := keyFilename(key)
	err := os.Remove(filepath.Join(s.root, ns, name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s/%s: %w", ns, key, err)
	}
	s.mu.Lock()
	s.unindex(ns, name)
	s.dirty = true
	s.mu.Unlock()
	return nil
}

// Entries implements Store, reading sizes and mod times from the filesystem.
func (s *FileStore) Entries(ns string) ([]Entry, error) {
	files, err := os.ReadDir(filepath.Join(s.root, ns))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: entries %s: %w", ns, err)
	}
	out := make([]Entry, 0, len(files))
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), fileSuffix) {
			continue
		}
		key, ok := filenameKey(f.Name())
		if !ok {
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue
		}
		out = append(out, Entry{Key: key, Bytes: info.Size(), ModTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.Before(out[j].ModTime)
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// SizeBytes implements Store from the in-memory index (no filesystem walk).
func (s *FileStore) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Flush implements Store. Individual Puts already fsync file and directory,
// so Flush only re-syncs the namespace directories when anything was written
// since the last call — the explicit barrier Close and SIGTERM drains use.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	dirty := s.dirty
	s.dirty = false
	var dirs []string
	for ns := range s.sizes {
		dirs = append(dirs, filepath.Join(s.root, ns))
	}
	s.mu.Unlock()
	if !dirty {
		return nil
	}
	for _, d := range dirs {
		syncDir(d)
	}
	syncDir(s.root)
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.Flush() }

// syncDir fsyncs a directory so a rename is durable; best-effort because
// some filesystems reject directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
