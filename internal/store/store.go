package store

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config configures a disk store.
type Config struct {
	// Dir holds the snapshot blobs; created if absent.
	Dir string
	// MaxBytes caps the total size of retained blobs; the least recently
	// used beyond it are garbage-collected, always keeping at least the
	// most recently touched blob (mirroring the registry's rule that the
	// newest space is always served). 0 = unlimited.
	MaxBytes int64
}

// blob is one on-disk snapshot in the in-memory index.
type blob struct {
	id    string
	bytes int64
	elem  *list.Element
}

// Store is a content-addressed blob store for encoded snapshots. The
// directory itself is the durable manifest — blobs are named by their
// content address (`<id>.snap`), so Open rebuilds the index with one
// scan and there is no separate manifest file to desync. Writes are
// atomic (temp file + rename), so a crash mid-write leaves at worst a
// stale temp file, which the next scan sweeps.
//
// All methods are safe for concurrent use. Blob IO runs outside the
// index lock; racing writers of the same id are benign because equal
// ids mean equal content.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	blobs map[string]*blob
	lru   *list.List // front = most recently used
	bytes int64

	hits        int64 // Get served a decodable blob
	misses      int64 // Get found nothing (or an unreadable newer version)
	puts        int64 // blobs written
	dupPuts     int64 // puts skipped because the blob already existed
	quarantined int64 // corrupt blobs set aside
	gcEvicted   int64 // blobs removed by the byte-budget GC
	putErrors   int64

	// scanDur is how long Open's directory scan took, retained so an IO
	// observer attached after Open (the server wires observability once
	// the store already exists) still learns the boot cost.
	scanDur time.Duration

	// onIO, when set, receives the duration of every completed store IO
	// operation ("scan", "put", "get", "gc"), feeding the
	// spaced_store_io_seconds histograms. onEvent, when set, receives
	// lifecycle notifications ("quarantine", "gc") for the event
	// journal. Both are set before serving and called outside the lock.
	onIO    func(op string, d time.Duration)
	onEvent func(kind, id string)
}

// SetIOObserver registers the IO-duration callback; call before
// serving. The boot scan already happened by the time an observer can
// attach, so its retained duration is replayed immediately.
func (s *Store) SetIOObserver(fn func(op string, d time.Duration)) {
	s.onIO = fn
	if fn != nil && s.scanDur > 0 {
		fn("scan", s.scanDur)
	}
}

// SetEventHook registers the lifecycle callback; call before serving.
func (s *Store) SetEventHook(fn func(kind, id string)) { s.onEvent = fn }

// observeIO reports one completed IO operation, if an observer is set.
func (s *Store) observeIO(op string, start time.Time) {
	if s.onIO != nil {
		s.onIO(op, time.Since(start))
	}
}

// suffixes of the files the store owns.
const (
	snapSuffix    = ".snap"
	corruptSuffix = ".corrupt"
	tmpPrefix     = "tmp-"
)

// ErrNotFound reports a Get for an id with no usable blob.
var ErrNotFound = errors.New("store: snapshot not found")

// Open creates (or reopens) the store rooted at cfg.Dir and scans it:
// stale temp files from crashed writers are removed, every `<id>.snap`
// is indexed by size, and the LRU order is seeded by file modification
// time, so a reopened store garbage-collects in the same order it
// would have had it stayed up. Blob contents are NOT verified here —
// a warm start over many gigabytes must not re-hash them all; Get
// verifies (and quarantines) lazily on first use.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		blobs:    make(map[string]*blob),
		lru:      list.New(),
	}
	scanStart := time.Now()
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type seen struct {
		id    string
		bytes int64
		mtime time.Time
	}
	var found []seen
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			// A writer died mid-blob; the rename never happened, so the
			// content was never promised to anyone.
			_ = os.Remove(filepath.Join(cfg.Dir, name))
			continue
		}
		id, ok := strings.CutSuffix(name, snapSuffix)
		if !ok || !validID(id) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		found = append(found, seen{id: id, bytes: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found {
		b := &blob{id: f.id, bytes: f.bytes}
		b.elem = s.lru.PushFront(b) // ascending mtime → oldest ends up at the back
		s.blobs[f.id] = b
		s.bytes += f.bytes
	}
	s.scanDur = time.Since(scanStart)
	return s, nil
}

// validID accepts hex SHA-256 content addresses, the only names the
// store writes; anything else in the directory is ignored, not owned.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+snapSuffix) }

// Has reports whether a blob for id is indexed. It is a cheap hint —
// the blob may still fail verification on Get.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[id]
	return ok
}

// Put persists an encoded snapshot under id atomically: encode to a
// temp file in the same directory, sync, rename. An existing blob for
// id is left untouched (equal ids mean equal content), so re-demoting
// a space that was already written through is a metadata no-op.
func (s *Store) Put(id string, snap *Snapshot) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid snapshot id %q", id)
	}
	s.mu.Lock()
	if b, ok := s.blobs[id]; ok {
		s.dupPuts++
		s.lru.MoveToFront(b.elem)
		s.mu.Unlock()
		s.touchFile(id)
		return nil
	}
	s.mu.Unlock()

	n, err := s.writeBlob(id, snap)
	if err != nil {
		s.mu.Lock()
		s.putErrors++
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	if b, ok := s.blobs[id]; ok {
		// Raced another Put of the same content; both renamed the same
		// final name, count ours once.
		s.dupPuts++
		s.lru.MoveToFront(b.elem)
		s.mu.Unlock()
		s.touchFile(id)
		return nil
	}
	b := &blob{id: id, bytes: n}
	b.elem = s.lru.PushFront(b)
	s.blobs[id] = b
	s.bytes += n
	s.puts++
	removed := s.gcLocked()
	s.mu.Unlock()
	if len(removed) > 0 {
		gcStart := time.Now()
		for _, victim := range removed {
			_ = os.Remove(s.path(victim))
		}
		s.observeIO("gc", gcStart)
		if s.onEvent != nil {
			for _, victim := range removed {
				s.onEvent("gc", victim)
			}
		}
	}
	return nil
}

// writeBlob encodes snap into a temp file and renames it into place,
// returning the blob size.
func (s *Store) writeBlob(id string, snap *Snapshot) (int64, error) {
	defer s.observeIO("put", time.Now())
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+id+"-")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := Encode(tmp, snap); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: encode %s: %w", id, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: sync %s: %w", id, err)
	}
	info, err := tmp.Stat()
	if err != nil {
		cleanup()
		return 0, fmt.Errorf("store: stat %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: close %s: %w", id, err)
	}
	if err := os.Rename(tmpName, s.path(id)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: publish %s: %w", id, err)
	}
	return info.Size(), nil
}

// Get loads and decodes the blob for id, refreshing its LRU position.
// Every failure is reported as an ErrNotFound-wrapped miss so callers
// fall back to rebuilding: a structurally corrupt blob is additionally
// quarantined (renamed to `.corrupt`, preserved for forensics), while
// an unknown (newer) format version is just de-indexed — the rebuild
// may overwrite it with a current-version blob, see ErrVersion.
func (s *Store) Get(id string) (*Snapshot, error) {
	s.mu.Lock()
	b, ok := s.blobs[id]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	s.lru.MoveToFront(b.elem)
	s.mu.Unlock()

	getStart := time.Now()
	f, err := os.Open(s.path(id))
	if err != nil {
		// GC or an operator removed it between index check and open.
		s.dropIndexed(id)
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	raw, derr := readBlob(f)
	f.Close()
	var snap *Snapshot
	if derr == nil {
		snap, derr = DecodeBytes(raw)
	}
	s.observeIO("get", getStart)
	switch {
	case derr == nil:
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		s.touchFile(id)
		return snap, nil
	case errors.Is(derr, ErrVersion):
		// Drop it from the index so callers stop retrying through us and
		// fall back to building; the file stays until that rebuild's
		// write-through replaces it with a current-version blob (which a
		// newer binary sharing the directory can still read — decoders
		// accept every version up to their own).
		s.dropIndexed(id)
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrNotFound, derr)
	default:
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		s.Quarantine(id)
		return nil, fmt.Errorf("%w: %v", ErrNotFound, derr)
	}
}

// readBlob reads an open blob whole into one buffer of the size the
// file has on disk, so a restore allocates for the bytes present, never
// for what a (possibly bit-flipped) header declares. A failed read is
// reported as ErrCorrupt, the same as a blob that reads short.
func readBlob(f *os.File) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: stat: %v", ErrCorrupt, err)
	}
	raw := make([]byte, info.Size())
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, fmt.Errorf("%w: read: %v", ErrCorrupt, err)
	}
	return raw, nil
}

// Quarantine sets the blob for id aside as `.corrupt`: it stops being
// served or counted, but its bytes are preserved for inspection. Also
// used by callers that discover semantic corruption the codec cannot
// see (e.g. a blob whose content does not hash to its name). It
// counts only the quarantine itself — lookup outcomes (hits/misses)
// are Get's to report — so one bad blob never double-counts.
func (s *Store) Quarantine(id string) {
	s.dropIndexed(id)
	// Quarantine is the one store event that indicates data damage
	// rather than routine cache traffic, so it always logs — through
	// the process-wide structured logger, which spaced configures.
	slog.Warn("snapshot quarantined", "id", id, "dir", s.dir)
	if err := os.Rename(s.path(id), filepath.Join(s.dir, id+corruptSuffix)); err != nil {
		// Rename failed (already gone, or exotic fs error): removal keeps
		// the store self-healing even without forensics.
		_ = os.Remove(s.path(id))
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
	if s.onEvent != nil {
		s.onEvent("quarantine", id)
	}
}

// Delete removes the blob for id, reporting whether one was indexed.
func (s *Store) Delete(id string) bool {
	ok := s.dropIndexed(id)
	_ = os.Remove(s.path(id))
	return ok
}

// dropIndexed removes id from the in-memory index only.
func (s *Store) dropIndexed(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[id]
	if !ok {
		return false
	}
	s.lru.Remove(b.elem)
	delete(s.blobs, id)
	s.bytes -= b.bytes
	return true
}

// gcLocked drops least-recently-used blobs until the store fits its
// byte budget, keeping at least the most recently touched blob. It
// returns the victim ids so the caller can do the file removal (and
// event reporting) outside the lock.
func (s *Store) gcLocked() []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var ids []string
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*blob)
		s.lru.Remove(back)
		delete(s.blobs, victim.id)
		s.bytes -= victim.bytes
		s.gcEvicted++
		ids = append(ids, victim.id)
	}
	return ids
}

// touchFile refreshes a blob's mtime (best-effort) so a future cold
// scan reconstructs the LIVE access order: every event that moves a
// blob to the in-memory LRU front — a decoded hit, a write-through
// re-demotion hitting an existing blob — must leave the same trace on
// disk, or a restarted store would GC hot blobs first.
func (s *Store) touchFile(id string) {
	now := time.Now()
	_ = os.Chtimes(s.path(id), now, now)
}

// Stats is a point-in-time snapshot of store behavior.
type Stats struct {
	Dir         string `json:"dir"`
	Blobs       int    `json:"blobs"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Puts        int64  `json:"puts"`
	DupPuts     int64  `json:"dup_puts"`
	Quarantined int64  `json:"quarantined"`
	GCEvicted   int64  `json:"gc_evicted"`
	PutErrors   int64  `json:"put_errors"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:         s.dir,
		Blobs:       s.lru.Len(),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		DupPuts:     s.dupPuts,
		Quarantined: s.quarantined,
		GCEvicted:   s.gcEvicted,
		PutErrors:   s.putErrors,
	}
}

// String renders the snapshot for logs.
func (st Stats) String() string {
	return fmt.Sprintf("blobs=%d bytes=%d hits=%d misses=%d puts=%d quarantined=%d gc_evicted=%d",
		st.Blobs, st.Bytes, st.Hits, st.Misses, st.Puts, st.Quarantined, st.GCEvicted)
}
