package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	salam "gosalam"
)

// Store is the durable result store a campaign reads and writes: a
// content-addressed map from job key (JobKey) to metrics. Implementations
// must be safe for concurrent use by campaign workers, and — because one
// store directory may be shared by several processes (sharded salam-serve
// instances splitting a sweep) — a Put must never expose a torn entry to a
// concurrent Get in another process. Get treats anything unreadable as a
// miss: the job simply re-simulates, determinism makes the rewrite
// byte-identical.
type Store interface {
	// Get returns the stored metrics for key, or false on a miss.
	Get(key string) (*Metrics, bool)
	// Put durably stores metrics under key. job is the spec that produced
	// them, recorded for debuggability.
	Put(key string, job Job, m *Metrics) error
}

// cacheSchema versions the on-disk entry layout; bump to invalidate every
// entry after an incompatible Metrics change.
//
// v2: RunOpts grew the Sample field (interval sampling) and Metrics grew
// Estimated/ErrorBound, so sampled and exact runs of the same point key —
// and cache — separately.
//
// v3: RunOpts lost its per-cycle profiling knob (per-cycle CSVs are now a
// timeline recorder). That changes the canonical JSON behind every key, so
// no v2 entry can hit again; the bump makes the invalidation explicit
// instead of leaving it implicit in the RunOpts layout.
const cacheSchema = 3

// keyDoc is the canonical content of a cache key. encoding/json writes map
// keys in sorted order, so marshaling this struct is a canonical encoding:
// equal jobs hash equal, regardless of map iteration order.
type keyDoc struct {
	Schema int           `json:"schema"`
	Kernel string        `json:"kernel"`
	Probe  string        `json:"probe,omitempty"`
	Opts   salam.RunOpts `json:"opts"`
}

// JobKey returns the job's content-addressed cache key: the hex SHA-256 of
// the canonical JSON of kernel identity + probe version + run options.
func JobKey(job Job) (string, error) {
	name := job.KernelKey
	if name == "" && job.Kernel != nil {
		name = job.Kernel.Name
	}
	if name == "" {
		return "", errors.New("job has neither KernelKey nor Kernel")
	}
	doc, err := json.Marshal(keyDoc{
		Schema: cacheSchema,
		Kernel: name,
		Probe:  job.ProbeKey,
		Opts:   job.Opts,
	})
	if err != nil {
		return "", fmt.Errorf("canonicalizing job: %w", err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// entry is one cache file: the key document for debuggability plus the
// stored metrics.
type entry struct {
	ID      string   `json:"id"`
	Kernel  string   `json:"kernel"`
	Probe   string   `json:"probe,omitempty"`
	Metrics *Metrics `json:"metrics"`
}

// Cache is the filesystem Store: a directory-backed, content-addressed
// store of job metrics. One JSON file per key keeps concurrent access
// trivial — reads of distinct files never conflict, and writes go through
// a temp file + os.Rename (atomic within a filesystem), so neither a
// crashed run nor a concurrent reader in another process can ever observe
// a torn entry. Corrupt, truncated, or otherwise unreadable entries are
// counted and treated as misses, never errors: the worst outcome of a
// damaged store is a redundant (and byte-identical) re-simulation. A small
// in-memory memo avoids re-reading files within a campaign; it is guarded
// for concurrent workers.
type Cache struct {
	dir string

	// corrupt counts Gets that found an entry file but could not use it
	// (unreadable, torn, or invalid JSON) — each one is served as a miss.
	corrupt atomic.Uint64

	mu   sync.Mutex
	memo map[string]*Metrics
}

// Cache implements Store.
var _ Store = (*Cache)(nil)

// OpenCache creates dir if needed and returns a cache over it.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening cache: %w", err)
	}
	return &Cache{dir: dir, memo: map[string]*Metrics{}}, nil
}

// Dir returns the backing directory.
func (c *Cache) Dir() string { return c.dir }

// CorruptMisses reports how many Gets found an entry file but had to treat
// it as a miss because it was unreadable, truncated, or invalid JSON.
func (c *Cache) CorruptMisses() uint64 { return c.corrupt.Load() }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the stored metrics for key, or false on a miss. Unreadable
// or corrupt entries count as misses (the job just re-simulates); they are
// tallied in CorruptMisses so operators can tell a damaged store from a
// cold one.
func (c *Cache) Get(key string) (*Metrics, bool) {
	c.mu.Lock()
	m, ok := c.memo[key]
	c.mu.Unlock()
	if ok {
		return m, true
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.corrupt.Add(1)
		}
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Metrics == nil {
		c.corrupt.Add(1)
		return nil, false
	}
	c.mu.Lock()
	c.memo[key] = e.Metrics
	c.mu.Unlock()
	return e.Metrics, true
}

// Put stores metrics under key atomically (temp file + rename).
func (c *Cache) Put(key string, job Job, m *Metrics) error {
	e := entry{ID: job.ID, Kernel: job.KernelKey, Probe: job.ProbeKey, Metrics: m}
	if e.Kernel == "" && job.Kernel != nil {
		e.Kernel = job.Kernel.Name
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	c.mu.Lock()
	c.memo[key] = m
	c.mu.Unlock()
	return nil
}

// Len counts the entries on disk (for tooling and tests).
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
