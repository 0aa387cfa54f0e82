// Package cache implements the set-associative cache timing model used by
// the instruction-set simulator. The paper's processor configuration has
// 4-way set-associative 16 KB instruction and data caches; cache misses
// (and uncached fetches) are among the macro-model's non-ideal-case
// variables, so the simulator must count them faithfully.
//
// Only hit/miss behaviour is modeled (true LRU replacement, write-through
// with write-allocate for data); cache contents are tags, not data — the
// functional memory image lives in the ISS.
//
// Not to be confused with internal/memo, the content-addressed store
// that memoizes estimation results: this package models the *simulated
// processor's* caches, it caches nothing for the tools themselves.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity, e.g. 16*1024.
	SizeBytes int
	// LineBytes is the line (block) size, e.g. 32.
	LineBytes int
	// Ways is the set associativity, e.g. 4.
	Ways int
	// MissPenalty is the stall, in cycles, added per miss.
	MissPenalty int
}

// Validate checks that the geometry is self-consistent: all parameters
// positive, power-of-two line count, and capacity divisible into sets.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("cache: negative miss penalty %d", c.MissPenalty)
	}
	return nil
}

// DefaultI returns the paper's instruction-cache configuration:
// 4-way, 16 KB, 32-byte lines.
func DefaultI() Config {
	return Config{SizeBytes: 16 * 1024, LineBytes: 32, Ways: 4, MissPenalty: 8}
}

// DefaultD returns the paper's data-cache configuration.
func DefaultD() Config {
	return Config{SizeBytes: 16 * 1024, LineBytes: 32, Ways: 4, MissPenalty: 10}
}

// Cache is a set-associative tag array with true-LRU replacement.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	setMask   uint32
	// tags[set*ways+way]; valid[...] same indexing.
	tags  []uint32
	valid []bool
	// lru[set*ways+way] holds a recency stamp; larger = more recent.
	lru   []uint64
	clock uint64
}

// New builds a cache from cfg. It panics if cfg is invalid; use
// cfg.Validate to check first when the geometry is user-supplied.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		setMask:   uint32(sets - 1),
		tags:      make([]uint32, lines),
		valid:     make([]bool, lines),
		lru:       make([]uint64, lines),
	}
}

// Access performs one access at byte address addr and returns whether it
// hit. On a miss the line is allocated (LRU victim within the set).
func (c *Cache) Access(addr uint32) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> uint(bitsFor(c.sets))
	base := set * c.cfg.Ways
	c.clock++
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.clock
			return true
		}
	}
	// Miss: fill the LRU way (preferring an invalid way).
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.lru[victim] = c.clock
	return false
}

// MissPenalty returns the configured per-miss stall in cycles.
func (c *Cache) MissPenalty() int { return c.cfg.MissPenalty }

// Reset invalidates all lines.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	c.clock = 0
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
