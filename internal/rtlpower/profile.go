package rtlpower

import (
	"fmt"
	"strings"
)

// ProfilePoint is one window of a power-versus-time profile.
type ProfilePoint struct {
	// StartCycle is the first cycle of the window.
	StartCycle uint64
	// Cycles is the window length (the last window may be short).
	Cycles uint64
	// EnergyPJ is the energy consumed in the window.
	EnergyPJ float64
}

// PowerMW returns the window's average power at the given clock.
func (p ProfilePoint) PowerMW(clockMHz float64) float64 {
	if p.Cycles == 0 {
		return 0
	}
	return p.EnergyPJ / float64(p.Cycles) * clockMHz * 1e6 * 1e-9
}

// ProfileAccumulator builds a power-vs-time profile incrementally from
// streamed per-entry energies. Hook OnEntry into a StreamEstimator to
// derive the profile from the same single estimation pass that produces
// the Report; the window energies then sum exactly to the report total.
type ProfileAccumulator struct {
	window uint64
	cur    ProfilePoint
	points []ProfilePoint
}

// NewProfileAccumulator returns an accumulator cutting windows of the
// given cycle length. Windows are cut at instruction granularity: an
// instruction's cycles and energy land in the window containing its
// first cycle.
func NewProfileAccumulator(windowCycles uint64) *ProfileAccumulator {
	return &ProfileAccumulator{window: windowCycles}
}

// OnEntry folds one retired instruction into the profile; it has the
// signature of StreamEstimator.OnEntry.
func (a *ProfileAccumulator) OnEntry(_ int, cycles uint64, pj float64) {
	a.cur.Cycles += cycles
	a.cur.EnergyPJ += pj
	if a.cur.Cycles >= a.window {
		a.points = append(a.points, a.cur)
		a.cur = ProfilePoint{StartCycle: a.cur.StartCycle + a.cur.Cycles}
	}
}

// Points flushes any trailing partial window and returns the profile.
func (a *ProfileAccumulator) Points() []ProfilePoint {
	if a.cur.Cycles > 0 {
		a.points = append(a.points, a.cur)
		a.cur = ProfilePoint{StartCycle: a.cur.StartCycle + a.cur.Cycles}
	}
	return a.points
}

// FormatProfile renders a power waveform as a text chart.
func FormatProfile(points []ProfilePoint, clockMHz float64) string {
	var b strings.Builder
	b.WriteString("power profile\n")
	var peak float64
	for _, p := range points {
		if mw := p.PowerMW(clockMHz); mw > peak {
			peak = mw
		}
	}
	if peak == 0 {
		peak = 1
	}
	for _, p := range points {
		mw := p.PowerMW(clockMHz)
		bar := strings.Repeat("#", int(float64(mw/peak*50)+0.5))
		fmt.Fprintf(&b, "%8d %8.1f mW %s\n", p.StartCycle, mw, bar)
	}
	return b.String()
}
