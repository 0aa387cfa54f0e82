package main

import (
	"runtime"
	"time"

	"xtenergy/internal/iss"
)

// simCounts are the simulated-machine counts of a fixed set of program
// runs. They are exact: a change that only touches the host side must
// leave them identical.
type simCounts struct {
	Instrs       uint64 `json:"iss.instrs"`
	Cycles       uint64 `json:"iss.cycles"`
	StallCycles  uint64 `json:"iss.stall_cycles"`
	ICacheMisses uint64 `json:"cache.icache_misses"`
	DCacheMisses uint64 `json:"cache.dcache_misses"`
	Interlocks   uint64 `json:"pipeline.interlocks"`
}

func (s *simCounts) add(st *iss.Stats) {
	s.Instrs += st.Retired
	s.Cycles += st.Cycles
	s.StallCycles += st.StallCycles
	s.ICacheMisses += st.ICacheMisses
	s.DCacheMisses += st.DCacheMisses
	s.Interlocks += st.Interlocks
}

func (r *run) simLayers(s simCounts) {
	r.layer["iss.instrs"] = float64(s.Instrs)
	r.layer["iss.cycles"] = float64(s.Cycles)
	r.layer["iss.stall_cycles"] = float64(s.StallCycles)
	r.layer["cache.icache_misses"] = float64(s.ICacheMisses)
	r.layer["cache.dcache_misses"] = float64(s.DCacheMisses)
	r.layer["pipeline.interlocks"] = float64(s.Interlocks)
}

// charParallelism is how many characterization legs run at once with
// the default core.Options.
func charParallelism() int { return runtime.GOMAXPROCS(0) }

// layerCommon sets the per-layer self times that every replay derives
// the same way from its spans, for the layers it exercised.
func (r *run) layerCommon(ls map[string]*layerStats) {
	us := []struct{ metric, span string }{
		{"procgen.generate_us", "procgen.Generate"},
		{"asm.assemble_us", "asm.Assemble"},
		{"plan.build_us", "plan.build"},
		{"rtlpower.new_us", "rtlpower.New"},
		{"rtlpower.finish_us", "rtlpower.Finish"},
		{"core.extract_us", "core.Extract"},
		{"xlint.analyze_us", "xlint.Analyze"},
		{"xlint.wcec_us", "xlint.ComputeWCEC"},
		{"engine.render_us", "engine.Render"},
		{"xpowerd.frame_us", "xpowerd.frame"},
	}
	for _, m := range us {
		if s := ls[m.span]; s != nil {
			r.layer[m.metric] = s.medianSelf(time.Microsecond)
		}
	}
	if s := ls["workloads.ByName"]; s != nil {
		r.layer["workloads.lookup_ms"] = s.medianSelf(time.Millisecond)
	}
	if s := ls["iss.Run"]; s != nil {
		r.layer["iss.ns_per_instr"] = float64(s.self) / r.tr.count("iss.run_instrs")
	}
}
