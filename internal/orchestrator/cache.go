package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"roadrunner/internal/experiments"
	"roadrunner/internal/params"
	"roadrunner/internal/report"
)

// Cache is a content-addressed artifact store on the filesystem. The key
// for an experiment is a digest over its ID, the fingerprint of every
// calibrated model input (params.Fingerprint), and a digest of the
// running executable — so editing a paper constant or rebuilding with
// changed model code invalidates stored artifacts, while re-runs and
// sweeps with an unchanged model skip straight to the stored artifact.
//
// Artifacts are stored as JSON under dir/<k0k1>/<key>.json, written via
// temp file + rename so concurrent workers and interrupted runs never
// leave a torn entry. A corrupt or unreadable entry is treated as a miss
// and overwritten by the recompute.
type Cache struct {
	dir          string
	hits, misses atomic.Int64
}

// DefaultCacheDir is where rrexp and rrserve keep their artifacts unless
// told otherwise: under the user cache directory, or in a dot directory
// of the working directory when there is none. The two commands share
// the root; their key namespaces are disjoint.
func DefaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "roadrunner", "artifacts")
	}
	return ".rrexp-cache"
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Key returns the content address for an experiment's artifact under the
// current model inputs and code. Artifacts are functions of the params
// fingerprint AND the model code, so the key also folds in a digest of
// the running executable: rebuilding after any code change invalidates
// the persistent cache, while re-runs of the same binary hit.
func (c *Cache) Key(experimentID string) string {
	h := sha256.New()
	h.Write([]byte("roadrunner-artifact-v1\n"))
	h.Write([]byte(experimentID))
	h.Write([]byte{'\n'})
	h.Write([]byte(params.Fingerprint()))
	h.Write([]byte{'\n'})
	h.Write([]byte(buildDigest()))
	return hex.EncodeToString(h.Sum(nil))
}

var (
	buildDigestOnce sync.Once
	buildDigestHex  string
)

// buildDigest hashes the running executable once per process. If the
// binary cannot be read (unusual: deleted after exec, exotic platform),
// it degrades to the PID-independent constant "unknown" — correctness
// still holds within one build because the params fingerprint and IDs
// still key the entry, but staleness across rebuilds is then possible;
// callers who need a guarantee can simply not reuse the cache dir.
func buildDigest() string {
	buildDigestOnce.Do(func() {
		buildDigestHex = "unknown"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		buildDigestHex = hex.EncodeToString(h.Sum(nil))
	})
	return buildDigestHex
}

// RawKey returns the content address for an arbitrary service payload
// under the current model inputs and code: a digest over the caller's
// namespace, the payload bytes, params.Fingerprint and the build
// digest. The serving layer keys its job artifacts this way — same
// request bytes, same calibrated inputs, same binary, same artifact —
// so a cache entry can never outlive the model it was computed from.
func (c *Cache) RawKey(namespace string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte("roadrunner-raw-v1\n"))
	h.Write([]byte(namespace))
	h.Write([]byte{'\n'})
	h.Write(payload)
	h.Write([]byte{'\n'})
	h.Write([]byte(params.Fingerprint()))
	h.Write([]byte{'\n'})
	h.Write([]byte(buildDigest()))
	return hex.EncodeToString(h.Sum(nil))
}

// path maps a key to its file, fanned out over 256 subdirectories.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// rawPath maps a raw-entry key to its file. Raw entries use a distinct
// extension so they can never collide with experiment artifacts.
func (c *Cache) rawPath(key string) string {
	return filepath.Join(c.dir, key[:2], key+".raw")
}

// GetRaw loads the bytes stored under key, reporting whether the entry
// was present.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.rawPath(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return data, true
}

// PutRaw stores data under key atomically.
func (c *Cache) PutRaw(key string, data []byte) error {
	final := c.rawPath(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	if err := report.WriteFileAtomic(final, data); err != nil {
		return fmt.Errorf("orchestrator: cache put raw %s: %w", key[:12], err)
	}
	return nil
}

// Get loads the artifact stored under key, reporting whether it was
// present and intact.
func (c *Cache) Get(key string) (*experiments.Artifact, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var art experiments.Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return &art, true
}

// Put stores art under key atomically.
func (c *Cache) Put(key string, art *experiments.Artifact) error {
	data, err := json.Marshal(art)
	if err != nil {
		return err
	}
	final := c.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	if err := report.WriteFileAtomic(final, data); err != nil {
		return fmt.Errorf("orchestrator: cache put %s: %w", key[:12], err)
	}
	return nil
}

// Stats reports cache probe counters for this process.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
