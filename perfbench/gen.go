package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/randprog"
	"xtenergy/internal/xpowerd"
)

// Every input a workload sends is drawn here from the run's seed; the
// program under test receives only the generated values. Each use of
// the seed gets its own stream, so adding draws to one workload never
// shifts another's inputs.

func streamRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// randSeed derives the randprog seed of the i-th generated program of
// a stream.
func randSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// randSource generates a random halting base-ISA program and renders it
// as assembly text: the disassembly (index prefixes stripped) followed
// by its data segment as .byte directives. Assembling the text gives
// back the same instructions and data.
func randSource(s int64) string {
	prog := randprog.Generate(s, randprog.Options{AllowLoops: true})
	return programSource(prog)
}

func programSource(prog *iss.Program) string {
	var b strings.Builder
	for _, ln := range strings.Split(isa.Disassemble(prog.Code), "\n") {
		if _, text, ok := strings.Cut(ln, ":"); ok {
			b.WriteString("    ")
			b.WriteString(strings.TrimSpace(text))
			b.WriteByte('\n')
		}
	}
	for _, seg := range prog.Data {
		fmt.Fprintf(&b, ".data %#x\n", seg.Addr)
		for i := 0; i < len(seg.Bytes); i += 16 {
			row := seg.Bytes[i:min(i+16, len(seg.Bytes))]
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = fmt.Sprint(v)
			}
			b.WriteString(".byte " + strings.Join(parts, ", ") + "\n")
		}
	}
	return b.String()
}

// balanced cycles through n indices, one fresh seeded permutation per
// round, so every index is drawn equally often whatever the seed and
// the draw mix does not depend on luck.
type balanced struct {
	r    *rand.Rand
	n    int
	perm []int
}

func newBalanced(r *rand.Rand, n int) *balanced { return &balanced{r: r, n: n} }

func (b *balanced) next() int {
	if len(b.perm) == 0 {
		b.perm = b.r.Perm(b.n)
	}
	v := b.perm[0]
	b.perm = b.perm[1:]
	return v
}

// ---- explore ----

// candidate is one design candidate of the explore workload: a registry
// program (Registry >= 0) or a fresh random program.
type candidate struct {
	Registry int
	Rand     int64
}

// candStream interleaves the registry programs, in a fresh seeded order
// each round, with seeded random programs.
type candStream struct {
	seed int64
	reg  *balanced
	i    int
}

func newCandStream(seed int64, nRegistry int) *candStream {
	return &candStream{seed: seed, reg: newBalanced(streamRand(seed, "explore/registry"), nRegistry)}
}

func (c *candStream) next() candidate {
	i := c.i
	c.i++
	if i%2 == 0 {
		return candidate{Registry: c.reg.next()}
	}
	return candidate{Registry: -1, Rand: randSeed(c.seed, "explore/rand", i)}
}

// ---- service ----

// serviceMix is the request mix: how many of every serviceRequests
// requests are of each kind. The counts are exact, not drawn, so every
// seed offers the same mix; only order, timing, names and generated
// programs change. The profile-window estimates are two full rounds of
// the registry, so each program's miss is priced equally often under
// every seed.
var serviceMix = []struct {
	kind  string
	count int
}{
	{"estimate", 345},
	{"estimate_window", 120},
	{"lint", 155},
	{"lint_source", 105},
	{"simulate", 155},
	{"simulate_source", 105},
	{"health", 65},
}

// mixDeck returns n request kinds in the proportions of serviceMix, in
// a seeded order.
func mixDeck(r *rand.Rand, n int) []string {
	total := 0
	for _, m := range serviceMix {
		total += m.count
	}
	deck := make([]string, 0, n)
	for _, m := range serviceMix {
		for i := 0; i < m.count*n/total; i++ {
			deck = append(deck, m.kind)
		}
	}
	for len(deck) < n {
		deck = append(deck, serviceMix[0].kind)
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// svcReq is one scheduled request.
type svcReq struct {
	At   time.Duration // offset of its scheduled send from the window start
	Kind string
	Req  xpowerd.Request
}

// unique reports whether the request's input is new by construction (a
// fresh profile window or generated source).
func (q svcReq) unique() bool {
	return strings.HasSuffix(q.Kind, "_window") || strings.HasSuffix(q.Kind, "_source")
}

// popularity draws registry names with a skewed (Zipf) popularity over
// a seeded ranking, so a few names take most of the traffic.
type popularity struct {
	names []string
	zipf  *rand.Zipf
}

func newPopularity(r *rand.Rand, names []string) *popularity {
	ranked := append([]string(nil), names...)
	r.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	return &popularity{names: ranked, zipf: rand.NewZipf(r, 1.3, 2, uint64(len(ranked)-1))}
}

func (p *popularity) next() string { return p.names[p.zipf.Uint64()] }

// serviceSchedule draws n requests whose send times are a Poisson
// process conditioned on n arrivals in [0, window): sorted uniform
// offsets. Name-based requests carry the CLI defaults (-fast for
// estimates, nothing else set).
func serviceSchedule(seed int64, names []string, n int, window time.Duration) []svcReq {
	r := streamRand(seed, "service/mix")
	pop := newPopularity(streamRand(seed, "service/popularity"), names)
	winNames := newBalanced(streamRand(seed, "service/window-names"), len(names))
	at := make([]time.Duration, n)
	tr := streamRand(seed, "service/arrivals")
	for i := range at {
		at[i] = time.Duration(tr.Int63n(int64(window)))
	}
	sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })

	deck := mixDeck(r, n)
	out := make([]svcReq, n)
	windows := 0
	for i, kind := range deck {
		q := svcReq{At: at[i], Kind: kind}
		switch kind {
		case "estimate":
			q.Req = xpowerd.Request{Op: xpowerd.OpEstimate, Workload: pop.next(), Fast: true}
		case "estimate_window":
			// Strictly increasing windows: every one is a new digest.
			w := uint64(4096 + 64*windows + r.Intn(64))
			windows++
			q.Req = xpowerd.Request{Op: xpowerd.OpEstimate, Workload: names[winNames.next()], Fast: true, ProfileWindow: w}
		case "lint":
			q.Req = xpowerd.Request{Op: xpowerd.OpLint, Workload: pop.next()}
		case "lint_source":
			q.Req = xpowerd.Request{Op: xpowerd.OpLint, Source: randSource(randSeed(seed, "service/source", i))}
		case "simulate":
			q.Req = xpowerd.Request{Op: xpowerd.OpSimulate, Workload: pop.next()}
		case "simulate_source":
			q.Req = xpowerd.Request{Op: xpowerd.OpSimulate, Source: randSource(randSeed(seed, "service/source", i))}
		case "health":
			q.Req = xpowerd.Request{Op: xpowerd.OpHealth}
		}
		out[i] = q
	}
	return out
}

// warmupRequests lists each distinct name-based work request of the
// schedule once, so that the timed window sees them as repeats.
func warmupRequests(sched []svcReq) []xpowerd.Request {
	seen := map[string]bool{}
	var out []xpowerd.Request
	for _, q := range sched {
		if q.unique() || q.Req.Op == xpowerd.OpHealth {
			continue
		}
		k := requestKey(q.Req)
		if !seen[k] {
			seen[k] = true
			out = append(out, q.Req)
		}
	}
	return out
}

func requestKey(req xpowerd.Request) string {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request always marshals
	}
	return string(b)
}

// ---- cli ----

// cliCall is one one-shot command-line invocation: xpower -fast on a
// registry workload (with a profile window when Window > 0), or xlint or
// xsim on a registry workload or on a generated program written to a
// .s file.
type cliCall struct {
	Tool     string // xpower, xlint or xsim
	Workload string
	Window   int
	Source   string
	Unique   bool
}

// args is the command line; file holds Source when there is one.
func (c cliCall) args(file string) []string {
	var a []string
	if c.Tool == "xpower" {
		a = append(a, "-fast")
		if c.Window > 0 {
			a = append(a, "-profile", fmt.Sprint(c.Window))
		}
	}
	if c.Workload != "" {
		return append(a, "-w", c.Workload)
	}
	return append(a, file)
}

// request is the daemon request that renders the same text in process.
// xpower's default -j 1 travels as Shards 1, which does not change the
// report.
func (c cliCall) request(file string) xpowerd.Request {
	q := xpowerd.Request{Workload: c.Workload}
	if c.Source != "" {
		q.Source, q.SourceName = c.Source, file
	}
	switch c.Tool {
	case "xpower":
		q.Op, q.Fast, q.Shards, q.ProfileWindow = xpowerd.OpEstimate, true, 1, uint64(c.Window)
	case "xlint":
		q.Op = xpowerd.OpLint
	default:
		q.Op = xpowerd.OpSimulate
	}
	return q
}

// cliRepeatSet draws the invocations the store is warmed with: four
// each of xpower -fast, xlint and xsim over seeded registry names.
func cliRepeatSet(seed int64, names []string) []cliCall {
	r := streamRand(seed, "cli/repeat")
	perm := r.Perm(len(names))
	tools := []string{"xpower", "xlint", "xsim"}
	out := make([]cliCall, 12)
	for i := range out {
		out[i] = cliCall{Tool: tools[i%3], Workload: names[perm[i]]}
	}
	return out
}

// cliStream draws the timed sequence: about 80% repeats of the warmed
// set and 20% unique calls (a fresh profile window, or a generated
// program for xlint or xsim).
type cliStream struct {
	seed    int64
	r       *rand.Rand
	repeat  []cliCall
	names   []string
	winName *balanced
	i       int
	windows int
}

func newCLIStream(seed int64, names []string) *cliStream {
	return &cliStream{
		seed: seed, r: streamRand(seed, "cli/sequence"), repeat: cliRepeatSet(seed, names),
		names: names, winName: newBalanced(streamRand(seed, "cli/window-names"), len(names)),
	}
}

func (c *cliStream) next() cliCall {
	i := c.i
	c.i++
	if c.r.Intn(5) != 0 {
		return c.repeat[c.r.Intn(len(c.repeat))]
	}
	switch c.r.Intn(4) {
	case 0, 1:
		w := 4096 + 64*c.windows + c.r.Intn(64)
		c.windows++
		return cliCall{Tool: "xpower", Workload: c.names[c.winName.next()], Window: w, Unique: true}
	case 2:
		return cliCall{Tool: "xlint", Source: randSource(randSeed(c.seed, "cli/source", i)), Unique: true}
	default:
		return cliCall{Tool: "xsim", Source: randSource(randSeed(c.seed, "cli/source", i)), Unique: true}
	}
}

// repeatTracker measures the share of inputs that repeat an earlier one.
// It keeps 64-bit hashes, not the inputs, so its memory stays small
// beside the program's.
type repeatTracker struct {
	seen    map[uint64]bool
	n, reps int
}

func newRepeatTracker() *repeatTracker { return &repeatTracker{seen: map[uint64]bool{}} }

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// mark records key as seen without counting it (a warm-up input).
func (t *repeatTracker) mark(key string) { t.seen[hashKey(key)] = true }

func (t *repeatTracker) add(key string) {
	k := hashKey(key)
	t.n++
	if t.seen[k] {
		t.reps++
	}
	t.seen[k] = true
}

func (t *repeatTracker) share() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.reps) / float64(t.n)
}
