package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultI()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Ways: 4},
		{SizeBytes: 16384, LineBytes: 0, Ways: 4},
		{SizeBytes: 16384, LineBytes: 32, Ways: 0},
		{SizeBytes: 16384, LineBytes: 33, Ways: 4}, // non-power-of-two line
		{SizeBytes: 16384, LineBytes: 32, Ways: 3}, // lines not divisible
		{SizeBytes: 100, LineBytes: 32, Ways: 1},   // size not multiple of line
		{SizeBytes: 16384, LineBytes: 32, Ways: 4, MissPenalty: -1},
		{SizeBytes: 3 * 1024, LineBytes: 32, Ways: 4}, // set count not power of two (24 sets)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestDefaultGeometry(t *testing.T) {
	// Paper configuration: 4-way 16 KB.
	for _, cfg := range []Config{DefaultI(), DefaultD()} {
		if cfg.SizeBytes != 16*1024 || cfg.Ways != 4 {
			t.Fatalf("default geometry %+v, want 4-way 16KB", cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(DefaultI())
	if c.Access(0x100) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x100) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x11F) { // same 32-byte line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x120) { // next line
		t.Fatal("next-line cold access hit")
	}
}

func TestAssociativityHoldsConflicts(t *testing.T) {
	// Four addresses mapping to the same set must all fit in a 4-way
	// cache; a fifth evicts the LRU.
	cfg := Config{SizeBytes: 4096, LineBytes: 32, Ways: 4, MissPenalty: 8}
	c := New(cfg)
	setStride := uint32(cfg.SizeBytes / cfg.Ways) // 1024: same set, different tag
	for i := uint32(0); i < 4; i++ {
		if c.Access(i * setStride) {
			t.Fatalf("cold access %d hit", i)
		}
	}
	for i := uint32(0); i < 4; i++ {
		if !c.Access(i * setStride) {
			t.Fatalf("way %d evicted prematurely", i)
		}
	}
	// Fifth tag evicts LRU (tag 0, the least recently touched).
	if c.Access(4 * setStride) {
		t.Fatal("fifth tag hit")
	}
	if c.Access(0) {
		t.Fatal("LRU line survived eviction")
	}
	if !c.Access(2 * setStride) {
		t.Fatal("recently used line was evicted")
	}
}

func TestLRUOrdering(t *testing.T) {
	cfg := Config{SizeBytes: 128, LineBytes: 32, Ways: 2, MissPenalty: 1}
	c := New(cfg) // 2 sets, 2 ways
	setStride := uint32(64)
	a, b, d := 0*setStride, 1*setStride, 2*setStride // same set (set 0)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a evicted despite being MRU")
	}
	if c.Access(b) {
		t.Fatal("b survived despite being LRU")
	}
}

func TestReset(t *testing.T) {
	c := New(DefaultI())
	c.Access(0)
	c.Access(0)
	c.Reset()
	if c.Access(0) {
		t.Fatal("line survived reset")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid config")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 32, Ways: 4})
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than the cache must stop missing after one
	// pass, regardless of access order.
	c := New(DefaultD())
	addrs := make([]uint32, 256) // 256 lines x 32B = 8KB < 16KB
	for i := range addrs {
		addrs[i] = uint32(i) * 32
	}
	for _, a := range addrs {
		c.Access(a)
	}
	r := rand.New(rand.NewSource(1))
	for pass := 0; pass < 4; pass++ {
		r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		for _, a := range addrs {
			if !c.Access(a) {
				t.Fatal("fitting working set missed after warmup")
			}
		}
	}
}

func TestThrashingWorkingSetMisses(t *testing.T) {
	// A strided working set twice the cache size must keep missing.
	c := New(DefaultD())
	var misses int
	for pass := 0; pass < 3; pass++ {
		misses = 0
		for a := uint32(0); a < 32*1024; a += 32 {
			if !c.Access(a) {
				misses++
			}
		}
	}
	if misses != 1024 { // every line of the final pass must miss
		t.Fatalf("final pass misses = %d, want 1024", misses)
	}
}

// Property: immediately repeating any access hits.
func TestRepeatHitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := New(Config{SizeBytes: 2048, LineBytes: 64, Ways: 4, MissPenalty: 5})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			a := uint32(r.Intn(1 << 20))
			c.Access(a)
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
