package server

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"sync"

	"stablerank"
	"stablerank/internal/store"
)

// Registry is the named-dataset catalog the service queries against.
// Datasets are registered at startup (from CSV files) or at runtime (POST
// /datasets/{name}); both paths replace an existing name atomically and bump
// the name's generation so analyzers and cached results built against the
// old data are never served for the new. With a store attached (AttachStore),
// every registration is persisted and reloaded on the next boot.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*registryEntry // guarded by mu
	store   store.Store               // nil until AttachStore
}

// registryEntry is one version of a named dataset. It is immutable once
// installed — a registration or PATCH installs a new entry — except for its
// item references, which the first answer rendered from it builds.
type registryEntry struct {
	ds  *stablerank.Dataset
	gen int64
	// ver counts delta applications within one generation: a full replacement
	// bumps gen and resets ver, a PATCH bumps only ver, so (gen, ver) orders
	// a name's datasets. The analyzer cache re-points an entry when a request
	// reads a newer version, and the response cache keys on both. ver is not
	// persisted — every version-keyed artifact (analyzer entries, response
	// cache) is in-memory, so after a restart ver 0 over the persisted
	// dataset is consistent by construction.
	ver int64

	itemsOnce sync.Once
	itemTable *itemTable // see items
}

// items returns the entry's rendered item references, building them on
// first use: at most once per dataset version, freed with the entry.
func (e *registryEntry) items() *itemTable {
	e.itemsOnce.Do(func() { e.itemTable = newItemTable(e.ds) })
	return e.itemTable
}

// datasetNameRE bounds names to something that is safe in URLs and cache
// keys.
var datasetNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// reservedDatasetNames are path segments the /v1 router claims for itself:
// GET /v1/jobs/{id} shares the /v1/{dataset}/{op} dispatcher, so a dataset
// named "jobs" would be unreachable. Registration rejects them loudly
// instead of creating a silently dead dataset.
var reservedDatasetNames = map[string]bool{"jobs": true}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*registryEntry)}
}

// Add registers ds under name, replacing any existing dataset with that name
// and invalidating results derived from it. The dataset must have at least
// one item and at least two scoring attributes (the analyzer's floor).
func (r *Registry) Add(name string, ds *stablerank.Dataset) error {
	if !datasetNameRE.MatchString(name) {
		return fmt.Errorf("server: invalid dataset name %q (want %s)", name, datasetNameRE)
	}
	if reservedDatasetNames[name] {
		return fmt.Errorf("server: dataset name %q is reserved by the /v1 API", name)
	}
	if ds == nil || ds.N() == 0 {
		return stablerank.ErrEmptyDataset
	}
	if ds.D() < 2 {
		return fmt.Errorf("server: dataset %q has %d scoring attributes, need >= 2", name, ds.D())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.entries[name]
	gen := int64(1)
	if prev != nil {
		gen = prev.gen + 1
	}
	e := &registryEntry{ds: ds, gen: gen}
	// Persist before installing: a dataset the client was told is registered
	// must survive a restart, so a write failure rejects the registration.
	if r.store != nil {
		if err := persistDataset(r.store, name, e); err != nil {
			return fmt.Errorf("server: persisting dataset %q: %w", name, err)
		}
	}
	r.entries[name] = e
	return nil
}

// persistDataset writes one catalog record. Callers hold r.mu.
func persistDataset(st store.Store, name string, e *registryEntry) error {
	data, err := store.EncodeDataset(uint64(e.gen), e.ds)
	if err != nil {
		return err
	}
	return st.Put(store.NSDatasets, name, data)
}

// AttachStore reloads the persisted catalog into the registry and starts
// persisting every subsequent Add through st. Merge rule when a name exists
// on both sides (a startup CSV flag naming an already persisted dataset): the
// in-memory dataset wins — the operator's explicit file is fresher than the
// stored copy — but adopts a generation past the persisted one, so analyzers
// and cached results keyed against the stored generation cannot be confused
// with the new content. Unreadable or corrupt records are skipped with a log
// line (the store has already quarantined them), never fatal: a damaged
// catalog entry costs one dataset, not the boot. Returns how many datasets
// were restored from the store.
func (r *Registry) AttachStore(st store.Store, logf func(format string, args ...any)) (int, error) {
	entries, err := st.Entries(store.NSDatasets)
	if err != nil {
		return 0, fmt.Errorf("server: listing persisted datasets: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	loaded := 0
	persisted := make(map[string]bool, len(entries))
	for _, ent := range entries {
		name := ent.Key
		if !datasetNameRE.MatchString(name) || reservedDatasetNames[name] {
			logf("stablerankd: persisted dataset %q has an invalid name, skipping", name)
			continue
		}
		data, err := st.Get(store.NSDatasets, name)
		if err != nil {
			logf("stablerankd: persisted dataset %q unreadable, skipping: %v", name, err)
			continue
		}
		gen, ds, err := store.DecodeDataset(data)
		if err != nil {
			logf("stablerankd: persisted dataset %q malformed, skipping: %v", name, err)
			continue
		}
		persisted[name] = true
		if prev, ok := r.entries[name]; ok {
			if g := int64(gen); g >= prev.gen {
				prev = &registryEntry{ds: prev.ds, gen: g + 1}
				r.entries[name] = prev
			}
			if err := persistDataset(st, name, prev); err != nil {
				return loaded, fmt.Errorf("server: re-persisting dataset %q: %w", name, err)
			}
			continue
		}
		r.entries[name] = &registryEntry{ds: ds, gen: int64(gen)}
		loaded++
	}
	// First boot with startup CSVs: persist the entries the store has never
	// seen, in sorted order so the store sees a stable write sequence.
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if persisted[name] {
			continue
		}
		if err := persistDataset(st, name, r.entries[name]); err != nil {
			return loaded, fmt.Errorf("server: persisting dataset %q: %w", name, err)
		}
	}
	r.store = st
	return loaded, nil
}

// AddCSV parses a CSV dataset from rd and registers it under name.
func (r *Registry) AddCSV(name string, rd io.Reader, hasHeader bool) error {
	ds, err := stablerank.ReadCSV(rd, hasHeader)
	if err != nil {
		return err
	}
	return r.Add(name, ds)
}

// LoadCSVFile reads the CSV file at path and registers it under name.
func (r *Registry) LoadCSVFile(name, path string, hasHeader bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.AddCSV(name, f, hasHeader)
}

// Get returns the dataset registered under name together with its
// generation (monotonic per name, starting at 1) and its delta version
// (bumped by ApplyDeltas, reset by a full replacement).
func (r *Registry) Get(name string) (ds *stablerank.Dataset, gen, ver int64, ok bool) {
	e, ok := r.entry(name)
	if !ok {
		return nil, 0, 0, false
	}
	return e.ds, e.gen, e.ver, true
}

// entry returns the entry registered under name: one version's dataset,
// generation, delta version and item references, read together.
func (r *Registry) entry(name string) (*registryEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// ApplyDeltas mutates the dataset registered under name by applying the
// deltas in order, installing the result under the same generation with the
// delta version bumped. Unlike Add, this does NOT bump the generation.
// The mutated dataset is persisted (under its unchanged generation) so it
// survives a restart. The whole batch fails atomically on any invalid delta
// or if it would empty the dataset.
func (r *Registry) ApplyDeltas(name string, deltas []stablerank.Delta) (ds *stablerank.Dataset, gen, ver int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.entries[name]
	if !ok {
		return nil, 0, 0, fmt.Errorf("server: dataset %q not found", name)
	}
	nds, err := stablerank.ApplyDeltas(prev.ds, deltas...)
	if err != nil {
		return nil, 0, 0, err
	}
	if nds.N() == 0 {
		return nil, 0, 0, fmt.Errorf("server: deltas would empty dataset %q", name)
	}
	e := &registryEntry{ds: nds, gen: prev.gen, ver: prev.ver + 1}
	if r.store != nil {
		if err := persistDataset(r.store, name, e); err != nil {
			return nil, 0, 0, fmt.Errorf("server: persisting dataset %q: %w", name, err)
		}
	}
	r.entries[name] = e
	return e.ds, e.gen, e.ver, nil
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
