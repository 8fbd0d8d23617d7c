package report

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// storeSchema versions what the shape of Result cannot show: the codec's
// own encoding rules, the directory layout, the key format, the meaning of
// a counter. A field added to, removed from or renamed in Result needs no
// bump, because versionSalt digests recordShape as well.
// v2-v4: Result and wpu.Stats grew (by hand, before the salt saw the shape).
// v5: records moved from a flat directory into subdirectories named by two
// hex digits of the digest, so a v4 store's files are unreachable.
// v6: a record is the checksummed positional form of codec.go under a new
// extension, no longer JSON; a v5 store's .json files are never opened.
const storeSchema = "dwsim-store-v6"

// recordExt names a record file. Anything else in a record directory
// (temporary files, an older schema's .json records) is not the store's.
const recordExt = ".rec"

// Store is a persistent, cross-process result cache: one record file
// (codec.go) per simulated point, named by a digest of the cache key plus a
// version salt (schema, record shape, Go version, and VCS state of the
// binary). Reads of records written under a different salt miss; writes are
// atomic (temp file + rename), so concurrent processes sharing a directory
// are safe. A record is not human-readable: `dwsim -stats` prints the run
// document of a stored point.
//
// The store heals itself: a record that fails its checksum, its decode or
// its key/salt check — truncated by a full disk, overwritten with garbage,
// left by something else at that name — is deleted and dropped from the
// index, Load reports a miss, and the caller's resimulation writes a good
// one in its place. StoreStats.Corrupt counts them.
//
// Records fan out over subdirectories named by the first byte of the
// digest. One mutex guards one in-memory index and one LRU list, and it is
// held only while those are updated: reading, decoding and verifying a
// record, and encoding, writing and renaming one, all run outside it, so
// concurrent clients overlap their file I/O and serialize on a few map and
// list operations (DESIGN.md "Result store" has the measurement that
// retired sixteen per-shard locks). With a byte-size cap set
// (OpenStoreWith), a Save evicts least-recently-used records past the cap;
// recency is a logical clock (the LRU list order), never wall time, so
// eviction decisions are reproducible for a given operation sequence.
//
// A capped store indexes the directory at open, so the cap covers records
// from earlier processes; an uncapped one on its first Stats, so opening it
// does not grow with the records other builds' salts left behind.
//
// The in-memory index is a cache of the directory, not the truth: a Load
// for a key the index has not seen still goes to the filesystem, and an
// indexed file deleted since — by another process's eviction, or by a
// concurrent Save's in this one — degrades to a miss. That keeps multiple
// Store instances — separate processes — safe on one cache dir, and it is
// what lets file operations run unlocked: whichever of two racing
// operations updates the index last may leave an entry for a file that is
// gone or a size one Save out of date, and the next Load of that key
// corrects it.
//
// The salt cannot see uncommitted source edits when the binary carries no
// VCS stamp (as with `go run` or test binaries): after changing simulator
// behaviour, clear the directory or pass -nocache.
//
// Interplay with observability: a Result record holds only the final
// counters, never the event trace or timeline that produced them, so a
// disk hit cannot stand in for a traced run. Session.RunTraced therefore
// skips Load entirely and always simulates live — but it still Saves the
// fresh Result, so a traced run warms the store for later untraced use.
type Store struct {
	dir      string
	salt     string
	maxBytes int64 // whole-store LRU cap; 0 = unbounded

	walked sync.Once // reindex has run: at open when capped, else on the first Stats

	mu      sync.Mutex               // guards entries, lru and bytes, and nothing else
	entries map[string]*list.Element // digest -> *storeEntry element
	lru     *list.List               // front = most recently used
	bytes   int64

	hits, misses, saves, evictions, evictedBytes, corrupt, saveErrors atomic.Uint64
}

// StoreOptions configures OpenStoreWith beyond the defaults.
type StoreOptions struct {
	// MaxBytes caps the store's on-disk footprint; past it, a Save evicts
	// the least-recently-used records. 0 means unbounded.
	MaxBytes int64
}

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Saves        uint64 `json:"saves"`
	SaveErrors   uint64 `json:"save_errors"` // Saves that failed; the result was still delivered
	Corrupt      uint64 `json:"corrupt"`     // unreadable records Load removed
	Evictions    uint64 `json:"evictions"`
	EvictedBytes uint64 `json:"evicted_bytes"`
	BytesInUse   int64  `json:"bytes_in_use"`
	Records      int    `json:"records"`
	MaxBytes     int64  `json:"max_bytes"`
}

// storeEntry is one indexed record file.
type storeEntry struct {
	digest string
	size   int64
}

// DefaultCacheDir returns the per-user cache location (~/.cache/dwsim on
// Linux), falling back to the system temp directory.
func DefaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "dwsim")
	}
	return filepath.Join(os.TempDir(), "dwsim-cache")
}

// OpenStore opens (creating if needed) a result store rooted at dir with no
// size cap; dir == "" means DefaultCacheDir().
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, StoreOptions{})
}

// OpenStoreWith opens a result store with an LRU size cap. A capped store
// indexes the records already there at open (in file-name order, a
// deterministic stand-in for their unknown access history) and evicts past
// the cap, so the cap covers records from earlier processes. An uncapped
// store only makes sure dir is a directory, and indexes it on the first
// Stats.
func OpenStoreWith(dir string, opt StoreOptions) (*Store, error) {
	if dir == "" {
		dir = DefaultCacheDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("report: open store: %w", err)
	}
	st := &Store{dir: dir, salt: versionSalt(), maxBytes: opt.MaxBytes,
		entries: make(map[string]*list.Element), lru: list.New()}
	if st.maxBytes > 0 {
		var err error
		st.walked.Do(func() { err = st.reindex() })
		if err != nil {
			return nil, fmt.Errorf("report: open store: %w", err)
		}
	}
	return st, nil
}

// reindex walks the directory outside st.mu, then indexes every record
// file the index does not hold yet and evicts past the cap. At a capped
// open the index is empty, so the files enter the LRU list in file-name
// order (ReadDir sorts). On an uncapped store's first Stats, entries Load
// and Save made meanwhile are fresher than the walk and are kept, and the
// order the rest take cannot matter: without a cap nothing is evicted. A
// file a racing Load removed after the walk saw it is a stale entry like
// any other, dropped by the next Load of its key.
func (st *Store) reindex() error {
	subdirs, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	var found []storeEntry
	for _, sd := range subdirs {
		if !sd.IsDir() || len(sd.Name()) != 2 {
			continue
		}
		if _, err := hex.DecodeString(sd.Name()); err != nil {
			continue
		}
		files, err := os.ReadDir(filepath.Join(st.dir, sd.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || filepath.Ext(name) != recordExt {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, storeEntry{strings.TrimSuffix(name, recordExt), info.Size()})
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range found {
		if _, ok := st.entries[e.digest]; !ok {
			st.index(e.digest, e.size)
		}
	}
	st.evictLocked()
	return nil
}

// versionSalt digests everything known about the program version so
// records from a different build of the simulator are not reused, and the
// shape of a record so one laid out differently is never decoded.
func versionSalt() string {
	h := sha256.New()
	fmt.Fprintln(h, storeSchema)
	fmt.Fprintln(h, recordShape)
	fmt.Fprintln(h, runtime.Version())
	if bi, ok := debug.ReadBuildInfo(); ok {
		fmt.Fprintln(h, bi.Main.Version)
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				fmt.Fprintf(h, "%s=%s\n", kv.Key, kv.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is what a record file carries, in this order (codec.go). Key and
// Salt are stored verbatim so Load can reject digest collisions and
// cross-version reuse outright.
type record struct {
	Key    string
	Salt   string
	Result Result
}

// digest names the record file for a key under the current salt.
func (st *Store) digest(key string) string {
	var buf [256]byte // salt, newline and a default key fit; the string is the one allocation
	d := sha256.Sum256(append(append(append(buf[:0], st.salt...), '\n'), key...))
	var h [32]byte
	hex.Encode(h[:], d[:16])
	return string(h[:])
}

// path places a record file inside its two-hex-digit directory.
func (st *Store) path(digest string) string {
	return filepath.Join(st.dir, digest[:2], digest+recordExt)
}

// index adds or refreshes one entry (st.mu held).
func (st *Store) index(digest string, size int64) {
	if el, ok := st.entries[digest]; ok {
		st.bytes += size - el.Value.(*storeEntry).size
		el.Value.(*storeEntry).size = size
		st.lru.MoveToFront(el)
		return
	}
	st.entries[digest] = st.lru.PushFront(&storeEntry{digest: digest, size: size})
	st.bytes += size
}

// drop removes one entry from the index (st.mu held).
func (st *Store) drop(digest string) {
	if el, ok := st.entries[digest]; ok {
		st.bytes -= el.Value.(*storeEntry).size
		st.lru.Remove(el)
		delete(st.entries, digest)
	}
}

// evictLocked deletes least-recently-used records until the store is back
// under its byte cap (st.mu held).
func (st *Store) evictLocked() {
	if st.maxBytes <= 0 {
		return
	}
	for st.bytes > st.maxBytes && st.lru.Len() > 0 {
		e := st.lru.Back().Value.(*storeEntry)
		os.Remove(st.path(e.digest)) // best-effort; another process may have won
		st.drop(e.digest)
		st.evictions.Add(1)
		st.evictedBytes.Add(uint64(e.size))
	}
}

// Load returns the stored Result for key, if a matching record exists. The
// file is read and verified before the lock is taken; only the index update
// that mirrors the outcome runs under it.
//
// A warm Load is one open, one read and one close. O_NONBLOCK spares the
// open the two fcntl calls os otherwise wraps around its attempt to register
// the descriptor with the poller (a regular file ignores the flag), and the
// read that leaves room in the buffer is taken as the whole file. A rejected
// record is deleted, so before it is, a short read is read on to EOF and
// decoded once more.
func (st *Store) Load(key string) (Result, bool) {
	digest := st.digest(key)
	var r Result
	var size int64
	ok := false
	if f, err := os.OpenFile(st.path(digest), os.O_RDONLY|syscall.O_NONBLOCK, 0); err == nil { // a miss takes no buffer
		buf := readBufs.Get().(*[]byte)
		var b []byte
		b, ok, err = readRecord(f, (*buf)[:0], key, st.salt, &r)
		f.Close()
		size = int64(len(b))
		if !ok && err == nil {
			os.Remove(st.path(digest)) // best-effort; the resimulation's Save replaces it anyway
			st.corrupt.Add(1)
		}
		if cap(b) <= maxPooledRead {
			*buf = b
			readBufs.Put(buf)
		}
	}
	st.mu.Lock()
	if ok {
		st.index(digest, size) // refresh recency; adopt foreign writes
	} else {
		st.drop(digest) // evicted, removed by another process, or unreadable and removed above
	}
	st.mu.Unlock()
	if !ok {
		st.misses.Add(1)
		return Result{}, false
	}
	st.hits.Add(1)
	return r, true
}

// readBufs holds Load's read buffers, so a warm Load allocates none. A
// new one holds a spine record (~0.8 KB) with room to spare.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2<<10); return &b }}

// maxPooledRead is the largest buffer Load returns to readBufs. A record is
// about a kilobyte; a bigger buffer was grown by a file that was not one,
// and the pool should not keep it alive.
const maxPooledRead = 64 << 10

// readRecord reads the record in f into b and decodes it into *r for key
// under salt. It reads once, and on to EOF only if those bytes are refused,
// so a false ok with a nil error means the whole file was refused.
func readRecord(f io.Reader, b []byte, key, salt string, r *Result) (_ []byte, ok bool, err error) {
	b, err = readAll(f, b, false)
	if ok = err == nil && decodeResult(b, key, salt, r); !ok && err == nil {
		b, err = readAll(f, b, true) // the read may have stopped short of EOF
		ok = err == nil && decodeResult(b, key, salt, r)
	}
	return b, ok, err
}

// readAll appends the rest of f to b. Unlike os.ReadFile it does not Stat
// the file to size a fresh buffer: it reads into b, growing b only if the
// file does not fit, until EOF or, unless toEOF, until a read leaves room
// in b — which for a regular file is EOF without the read that says so.
func readAll(f io.Reader, b []byte, toEOF bool) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF || err == nil && !toEOF && len(b) < cap(b) {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// Save persists one result and evicts past the size cap. A failure is
// counted in StoreStats.SaveErrors and returned, but is deliberately
// non-fatal to callers like Session.simulate, which drop the error: a
// broken cache directory must never fail a simulation that already
// succeeded.
func (st *Store) Save(key string, r Result) error {
	err := st.save(key, r)
	if err != nil {
		st.saveErrors.Add(1)
	}
	return err
}

func (st *Store) save(key string, r Result) error {
	b := encodeResult(key, st.salt, &r)
	digest := st.digest(key)
	recDir := filepath.Join(st.dir, digest[:2])
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(recDir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), st.path(digest)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	st.mu.Lock()
	st.index(digest, int64(len(b)))
	st.evictLocked()
	st.mu.Unlock()
	st.saves.Add(1)
	return nil
}

// Stats returns the counters and, under the lock, the index totals. On an
// uncapped store the first call walks the directory (reindex) before it
// reads them, and a concurrent call waits for that walk.
func (st *Store) Stats() StoreStats {
	st.walked.Do(func() { _ = st.reindex() }) // unreadable directory: the index stays what Load and Save made
	s := StoreStats{
		Hits:         st.hits.Load(),
		Misses:       st.misses.Load(),
		Saves:        st.saves.Load(),
		SaveErrors:   st.saveErrors.Load(),
		Corrupt:      st.corrupt.Load(),
		Evictions:    st.evictions.Load(),
		EvictedBytes: st.evictedBytes.Load(),
		MaxBytes:     st.maxBytes,
	}
	st.mu.Lock()
	s.BytesInUse = st.bytes
	s.Records = st.lru.Len()
	st.mu.Unlock()
	return s
}
