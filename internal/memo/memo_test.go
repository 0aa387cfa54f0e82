package memo

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"xtenergy/internal/iss"
)

func newTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seed stores data under d through a Do whose compute returns it.
func seed(t *testing.T, s *Store, d Digest, data []byte) {
	t.Helper()
	if _, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return data, nil
	}); err != nil || out != OutcomeMiss {
		t.Fatalf("seeding Do = %v, %v", out, err)
	}
}

// mustHit is a compute for a Do that one of the store's tiers must
// answer: running it fails the test.
func mustHit(t *testing.T) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) {
		t.Error("computed an entry the store should hold")
		return nil, fmt.Errorf("unexpected compute")
	}
}

func TestDoMissThenHits(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	d := DigestBytes([]byte("req"))
	var computes atomic.Int64
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte("artifact"), nil
	}

	got, out, err := s.Do(context.Background(), d, compute)
	if err != nil || string(got) != "artifact" || out != OutcomeMiss {
		t.Fatalf("first Do = %q, %v, %v", got, out, err)
	}
	got, out, err = s.Do(context.Background(), d, compute)
	if err != nil || string(got) != "artifact" || out != OutcomeMemHit {
		t.Fatalf("second Do = %q, %v, %v", got, out, err)
	}

	// A fresh store over the same directory must hit the disk tier.
	s2 := newTestStore(t, dir)
	got, out, err = s2.Do(context.Background(), d, compute)
	if err != nil || string(got) != "artifact" || out != OutcomeDiskHit {
		t.Fatalf("disk-tier Do = %q, %v, %v", got, out, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	c := s.Counters()
	if c.Misses != 1 || c.MemHits != 1 || c.Hits != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c2 := s2.Counters(); c2.DiskHits != 1 || c2.Hits != 1 {
		t.Fatalf("fresh-store counters = %+v", c2)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s := newTestStore(t, "")
	d := DigestBytes([]byte("x"))
	if _, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return []byte("v"), nil
	}); err != nil || out != OutcomeMiss {
		t.Fatalf("Do = %v, %v", out, err)
	}
	if _, out, _ := s.Do(context.Background(), d, nil); out != OutcomeMemHit {
		t.Fatalf("second Do outcome = %v", out)
	}
}

func TestLRUEviction(t *testing.T) {
	s := newTestStore(t, "")
	s.maxEntries = 2
	keys := make([]Digest, 3)
	for i := range keys {
		keys[i] = DigestBytes([]byte{byte(i)})
		seed(t, s, keys[i], []byte{byte(i)})
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if _, out, _ := s.Do(context.Background(), keys[2], mustHit(t)); out != OutcomeMemHit {
		t.Fatalf("newest entry outcome = %v, want mem-hit", out)
	}
	if _, out, _ := s.Do(context.Background(), keys[0], func(context.Context) ([]byte, error) {
		return []byte{0}, nil
	}); out != OutcomeMiss {
		t.Fatalf("oldest entry outcome = %v, want miss", out)
	}
}

func TestByteBoundEviction(t *testing.T) {
	s := newTestStore(t, "")
	s.maxBytes = 10
	a, b := DigestBytes([]byte("a")), DigestBytes([]byte("b"))
	seed(t, s, a, make([]byte, 8))
	seed(t, s, b, make([]byte, 8))
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if _, out, _ := s.Do(context.Background(), b, mustHit(t)); out != OutcomeMemHit {
		t.Fatalf("latest entry evicted")
	}
}

// corruptEntry rewrites the stored file through fn.
func corruptEntry(t *testing.T, s *Store, d Digest, fn func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(s.path(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(d), fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntriesRecompute(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bit-flipped", func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		}},
		{"header-only", func(b []byte) []byte { return b[:4] }},
		{"bad-magic", func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore(t, dir)
			d := DigestBytes([]byte("req"))
			seed(t, s, d, []byte("payload"))
			corruptEntry(t, s, d, tc.fn)

			// Read through a fresh store so the memory tier cannot mask
			// the corruption.
			var faults2 []error
			s2 := newTestStore(t, dir)
			s2.onCorrupt = func(err error) { faults2 = append(faults2, err) }
			got, out, err := s2.Do(context.Background(), d, func(context.Context) ([]byte, error) {
				return []byte("payload"), nil
			})
			if err != nil || string(got) != "payload" || out != OutcomeMiss {
				t.Fatalf("Do after corruption = %q, %v, %v", got, out, err)
			}
			if len(faults2) != 1 {
				t.Fatalf("OnCorrupt called %d times, want 1", len(faults2))
			}
			f, ok := iss.AsFault(faults2[0])
			if !ok || f.Kind != iss.FaultArtifact {
				t.Fatalf("corruption error %v is not a typed FaultArtifact", faults2[0])
			}
			if c := s2.Counters(); c.Corrupt != 1 || c.Misses != 1 {
				t.Fatalf("counters = %+v", c)
			}

			// The recompute rewrote the entry: a third store reads it clean.
			s3 := newTestStore(t, dir)
			got, out, err = s3.Do(context.Background(), d, mustHit(t))
			if err != nil || string(got) != "payload" || out != OutcomeDiskHit {
				t.Fatalf("entry not rewritten: %q, %v, %v", got, out, err)
			}
		})
	}
}

// TestUnreadableEntryIsAMiss puts a directory where an entry belongs:
// a read error that says nothing about the entry's bytes must be a
// plain miss — recomputed, not counted corrupt, not deleted.
func TestUnreadableEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	var faults []error
	s := newTestStore(t, dir)
	s.onCorrupt = func(err error) { faults = append(faults, err) }
	d := DigestBytes([]byte("req"))
	if err := os.MkdirAll(s.path(d), 0o755); err != nil {
		t.Fatal(err)
	}

	got, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return []byte("payload"), nil
	})
	if err != nil || string(got) != "payload" || out != OutcomeMiss {
		t.Fatalf("Do over an unreadable entry = %q, %v, %v", got, out, err)
	}
	if len(faults) != 0 {
		t.Fatalf("OnCorrupt called for an unreadable entry: %v", faults)
	}
	if c := s.Counters(); c.Corrupt != 0 || c.Misses != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if fi, err := os.Stat(s.path(d)); err != nil || !fi.IsDir() {
		t.Fatalf("the directory at the entry path is gone: %v", err)
	}
}

func TestThunderingHerdCoalesces(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	d := DigestBytes([]byte("herd"))
	const n = 32
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, n)

	var wg sync.WaitGroup
	results := make([]string, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			got, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release // hold the leader so the herd piles up
				return []byte("one"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = string(got)
			outcomes[i] = out
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times under the herd, want exactly 1", got)
	}
	var miss, coalesced int
	for i := range results {
		if results[i] != "one" {
			t.Fatalf("goroutine %d got %q", i, results[i])
		}
		switch outcomes[i] {
		case OutcomeMiss:
			miss++
		case OutcomeCoalesced, OutcomeMemHit:
			coalesced++
		default:
			t.Fatalf("goroutine %d outcome %v", i, outcomes[i])
		}
	}
	if miss != 1 {
		t.Fatalf("%d leaders, want 1", miss)
	}
	c := s.Counters()
	if c.Misses != 1 {
		t.Fatalf("misses = %d, want 1", c.Misses)
	}
	if c.Coalesced+c.MemHits != n-1 {
		t.Fatalf("coalesced %d + mem hits %d != %d", c.Coalesced, c.MemHits, n-1)
	}
}

func TestComputeErrorsAreNotCached(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	d := DigestBytes([]byte("err"))
	boom := fmt.Errorf("boom")
	if _, _, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v", err)
	}
	got, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(got) != "ok" || out != OutcomeMiss {
		t.Fatalf("retry = %q, %v, %v", got, out, err)
	}
}

func TestFollowerRetriesAfterCancelledLeader(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	d := DigestBytes([]byte("cancel"))
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := s.Do(leaderCtx, d, func(ctx context.Context) ([]byte, error) {
			close(leaderIn)
			<-release
			return nil, &iss.Fault{Kind: iss.FaultCancelled, PC: -1, Msg: "cancelled", Err: ctx.Err()}
		})
		if f, ok := iss.AsFault(err); !ok || f.Kind != iss.FaultCancelled {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn

	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
			return []byte("fresh"), nil
		})
		if err != nil || string(got) != "fresh" {
			t.Errorf("follower = %q, %v", got, err)
		}
	}()

	cancelLeader()
	close(release)
	wg.Wait()
}
