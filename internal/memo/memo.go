// Package memo is the content-addressed artifact store behind the
// estimation engine (internal/engine): a bounded in-memory LRU layered
// over an on-disk CAS, both keyed by the SHA-256 digest of a
// canonically-serialized request, with singleflight coalescing so a
// thundering herd of identical requests costs exactly one computation.
//
// Not to be confused with internal/cache, which is the hardware
// instruction/data-cache *timing model* of the simulated processor;
// this package memoizes estimation *results* across requests and
// processes.
//
// Corrupted or truncated disk entries never poison the store: every
// entry carries a checksum, a failed verification surfaces as a typed
// iss.Fault (FaultArtifact) through the OnCorrupt hook and the corrupt
// counter, the entry is deleted, and the request falls through to
// recomputation, which rewrites it.
package memo

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"xtenergy/internal/iss"
)

// Digest is the SHA-256 content address of one artifact: the hash of
// the canonically-serialized request that produced it.
type Digest [sha256.Size]byte

// DigestBytes hashes a canonical serialization into its address.
func DigestBytes(b []byte) Digest { return sha256.Sum256(b) }

// Hex renders the digest as the lowercase hex string used for on-disk
// entry names.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Outcome classifies how one Do call was served.
type Outcome int

const (
	// OutcomeMiss: computed fresh (and stored).
	OutcomeMiss Outcome = iota
	// OutcomeMemHit: served from the in-memory LRU tier.
	OutcomeMemHit
	// OutcomeDiskHit: served from the on-disk CAS tier (and promoted
	// into memory).
	OutcomeDiskHit
	// OutcomeCoalesced: an identical request was already in flight;
	// this call waited for its result instead of computing.
	OutcomeCoalesced
	// OutcomeBypass: the caller asked for an uncached computation
	// (engine NoCache); nothing was read or written.
	OutcomeBypass
)

// String names the outcome for logs and test failures.
func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeMemHit:
		return "mem-hit"
	case OutcomeDiskHit:
		return "disk-hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeBypass:
		return "bypass"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Counters is a point-in-time snapshot of the store's accounting; it is
// what `xpowerd health` reports and what the coalescing tests assert
// against.
type Counters struct {
	// MemHits and DiskHits count requests served from each tier; Hits
	// is their sum, kept explicit so wire consumers need no arithmetic.
	Hits     uint64 `json:"hits"`
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts requests that fell through to computation — each
	// miss is exactly one pipeline execution.
	Misses uint64 `json:"misses"`
	// Coalesced counts requests that waited on an identical in-flight
	// computation instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts in-memory LRU entries dropped for capacity.
	Evictions uint64 `json:"evictions"`
	// Corrupt counts disk entries that failed checksum or framing
	// verification and were deleted and recomputed.
	Corrupt uint64 `json:"corrupt"`
}

// Options configures a Store.
type Options struct {
	// Dir is the on-disk CAS root; "" disables the disk tier
	// (memory-only store).
	Dir string
	// MaxEntries bounds the in-memory LRU entry count (0 = 1024).
	MaxEntries int
	// MaxBytes bounds the summed payload bytes held in memory
	// (0 = 64 MiB).
	MaxBytes int64
	// OnCorrupt, when non-nil, observes the typed iss.Fault raised for
	// every corrupt disk entry (tests and logs; the request itself
	// recomputes and succeeds).
	OnCorrupt func(error)
}

// flight is one in-progress computation identical requests coalesce on.
type flight struct {
	done chan struct{}
	val  []byte
	out  Outcome
	err  error
}

// Store is the two-tier artifact store. It is safe for concurrent use;
// the disk tier is additionally safe across processes (entries are
// written to a temp file and atomically renamed into place, and readers
// verify checksums).
type Store struct {
	dir        string
	maxEntries int
	maxBytes   int64
	onCorrupt  func(error)

	mu      sync.Mutex
	ll      *list.List // front = most recent
	idx     map[Digest]*list.Element
	bytes   int64
	flights map[Digest]*flight

	hitsMem, hitsDisk, misses, coalesced, evictions, corrupt atomic.Uint64
}

type entry struct {
	d    Digest
	data []byte
}

// New opens a store. A non-empty Dir is created if missing; failure to
// create it is returned rather than silently degrading, so callers can
// decide to fall back to a memory-only store.
func New(o Options) (*Store, error) {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 1024
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: create store dir: %w", err)
		}
	}
	return &Store{
		dir:        o.Dir,
		maxEntries: o.MaxEntries,
		maxBytes:   o.MaxBytes,
		onCorrupt:  o.OnCorrupt,
		ll:         list.New(),
		idx:        make(map[Digest]*list.Element),
		flights:    make(map[Digest]*flight),
	}, nil
}

// Counters returns a snapshot of the store's accounting.
func (s *Store) Counters() Counters {
	c := Counters{
		MemHits:   s.hitsMem.Load(),
		DiskHits:  s.hitsDisk.Load(),
		Misses:    s.misses.Load(),
		Coalesced: s.coalesced.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
	c.Hits = c.MemHits + c.DiskHits
	return c
}

// Do resolves digest d: memory tier, then disk tier, then compute —
// with identical concurrent requests coalesced onto one computation.
// The returned bytes are shared with the store's memory tier; callers
// must not mutate them. Compute errors are not cached: every waiter
// receives the error and the next request computes again. A corrupt
// disk entry is counted, reported through OnCorrupt as a typed
// iss.Fault, deleted, and recomputed — never returned.
//
// ctx cancels this caller's wait; the in-flight computation itself runs
// on the leader's context. A follower whose leader was cancelled
// retries the resolution itself rather than inheriting the
// cancellation.
func (s *Store) Do(ctx context.Context, d Digest, compute func(context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	for {
		s.mu.Lock()
		if el, ok := s.idx[d]; ok {
			s.ll.MoveToFront(el)
			data := el.Value.(*entry).data
			s.mu.Unlock()
			s.hitsMem.Add(1)
			return data, OutcomeMemHit, nil
		}
		if fl, ok := s.flights[d]; ok {
			s.mu.Unlock()
			s.coalesced.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, OutcomeCoalesced, &iss.Fault{
					Kind: iss.FaultCancelled, PC: -1,
					Msg: "memo: wait for coalesced result cancelled", Err: ctx.Err(),
				}
			}
			if fl.err != nil {
				// A leader cancelled out from under us is not our
				// failure: take over the computation ourselves.
				if f, ok := iss.AsFault(fl.err); ok && f.Kind == iss.FaultCancelled && ctx.Err() == nil {
					continue
				}
				return nil, OutcomeCoalesced, fl.err
			}
			return fl.val, OutcomeCoalesced, nil
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[d] = fl
		s.mu.Unlock()

		fl.val, fl.out, fl.err = s.lead(ctx, d, compute)
		s.mu.Lock()
		delete(s.flights, d)
		s.mu.Unlock()
		close(fl.done)
		return fl.val, fl.out, fl.err
	}
}

// lead is the leader's half of Do: disk lookup, then computation and
// store-back.
func (s *Store) lead(ctx context.Context, d Digest, compute func(context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	if data, err := s.readDisk(d); err == nil && data != nil {
		s.putMem(d, data)
		s.hitsDisk.Add(1)
		return data, OutcomeDiskHit, nil
	} else if err != nil {
		s.corrupt.Add(1)
		if s.onCorrupt != nil {
			s.onCorrupt(err)
		}
		os.Remove(s.path(d)) // never read a poisoned entry twice
	}
	s.misses.Add(1) // counted at computation start: one miss == one pipeline execution
	data, err := compute(ctx)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	s.putMem(d, data)
	s.writeDisk(d, data)
	return data, OutcomeMiss, nil
}

// Get resolves d from the two tiers without computing: (nil, miss, nil)
// on absence or an unreadable disk entry, a typed iss.Fault on a
// corrupt one (which is also counted and deleted). Mainly a test and
// inspection surface; Do is the serving path.
func (s *Store) Get(d Digest) ([]byte, Outcome, error) {
	s.mu.Lock()
	if el, ok := s.idx[d]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		s.mu.Unlock()
		s.hitsMem.Add(1)
		return data, OutcomeMemHit, nil
	}
	s.mu.Unlock()
	data, err := s.readDisk(d)
	switch {
	case err != nil:
		s.corrupt.Add(1)
		if s.onCorrupt != nil {
			s.onCorrupt(err)
		}
		os.Remove(s.path(d))
		return nil, OutcomeMiss, err
	case data == nil:
		return nil, OutcomeMiss, nil
	}
	s.putMem(d, data)
	s.hitsDisk.Add(1)
	return data, OutcomeDiskHit, nil
}

// Put stores data under d in both tiers (test seeding and write-through
// callers; Do stores automatically on a miss).
func (s *Store) Put(d Digest, data []byte) {
	s.putMem(d, data)
	s.writeDisk(d, data)
}

func (s *Store) putMem(d Digest, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[d]; ok {
		s.bytes += int64(len(data)) - int64(len(el.Value.(*entry).data))
		el.Value.(*entry).data = data
		s.ll.MoveToFront(el)
	} else {
		s.idx[d] = s.ll.PushFront(&entry{d: d, data: data})
		s.bytes += int64(len(data))
	}
	for s.ll.Len() > s.maxEntries || (s.bytes > s.maxBytes && s.ll.Len() > 1) {
		back := s.ll.Back()
		e := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.idx, e.d)
		s.bytes -= int64(len(e.data))
		s.evictions.Add(1)
	}
}

// ---- disk tier ----

// Disk entry framing: magic, SHA-256 checksum of the payload, payload
// length, payload. The checksum is of the *payload*, not the digest key
// (the key is the request's digest, not the artifact's), so bit flips
// and truncations anywhere in the file fail verification.
const diskMagic = "xtmemo1\n"

const diskHeaderSize = len(diskMagic) + sha256.Size + 8

func (s *Store) path(d Digest) string {
	h := d.Hex()
	return filepath.Join(s.dir, h[:2], h+".art")
}

func corruptf(d Digest, format string, args ...any) *iss.Fault {
	return &iss.Fault{
		Kind: iss.FaultArtifact, PC: -1,
		Msg: fmt.Sprintf("memo: entry %s: %s", d.Hex()[:12], fmt.Sprintf(format, args...)),
	}
}

// readDisk returns (nil, nil) when the disk tier is disabled or the
// entry cannot be read, the payload when it verifies, and a typed
// iss.Fault (FaultArtifact) when the entry was read but is truncated,
// misframed, or checksum-corrupt.
func (s *Store) readDisk(d Digest) ([]byte, error) {
	if s.dir == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(s.path(d))
	if err != nil {
		// Absent, or unreadable for a reason that says nothing about
		// the entry's bytes (EMFILE, EIO, EACCES): a miss, so a
		// process out of descriptors never deletes valid artifacts.
		// The recompute's writeDisk replaces the entry if it can.
		return nil, nil
	}
	if len(raw) < diskHeaderSize {
		return nil, corruptf(d, "truncated header: %d bytes", len(raw))
	}
	if string(raw[:len(diskMagic)]) != diskMagic {
		return nil, corruptf(d, "bad magic")
	}
	var want [sha256.Size]byte
	copy(want[:], raw[len(diskMagic):])
	n := binary.BigEndian.Uint64(raw[len(diskMagic)+sha256.Size:])
	payload := raw[diskHeaderSize:]
	if uint64(len(payload)) != n {
		return nil, corruptf(d, "declared %d payload bytes, have %d", n, len(payload))
	}
	if sha256.Sum256(payload) != want {
		return nil, corruptf(d, "checksum mismatch")
	}
	return payload, nil
}

// writeDisk stores the entry atomically: temp file in the same
// directory, then rename. The disk tier is best-effort — an unwritable
// store never fails a request that already holds its result.
func (s *Store) writeDisk(d Digest, payload []byte) {
	if s.dir == "" {
		return
	}
	p := s.path(d)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	f, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return
	}
	sum := sha256.Sum256(payload)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(payload)))
	_, werr := f.Write([]byte(diskMagic))
	if werr == nil {
		_, werr = f.Write(sum[:])
	}
	if werr == nil {
		_, werr = f.Write(hdr[:])
	}
	if werr == nil {
		_, werr = f.Write(payload)
	}
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(f.Name())
		return
	}
	if err := os.Rename(f.Name(), p); err != nil {
		os.Remove(f.Name())
	}
}
