// Package core implements the paper's primary contribution: a hybrid
// instruction-level + structural energy macro-model for extensible
// processors, built by in-situ regression characterization and applied
// through fast instruction-set simulation.
//
// The macro-model template (paper Eq. 2-4) is linear in 21 variables:
//
//	E = Σ c_i · N_i
//
// with eleven instruction-level variables — cycles of the six base
// instruction classes (arith, load, store, jump, branch-taken,
// branch-untaken), four non-ideal-case counts (I-cache misses, D-cache
// misses, uncached instruction fetches, processor interlocks), and the
// custom-instruction register-file side-effect cycles — and ten
// structural variables, the complexity-weighted active-cycle counts of
// the custom-hardware library categories.
//
// Characterize fits the coefficients against the slow RTL-level
// reference estimator over a suite of test programs; the resulting
// MacroModel estimates any application — with any custom instructions —
// from ISS statistics alone, with no synthesis or RTL simulation.
package core

import (
	"fmt"

	"xtenergy/internal/hwlib"
	"xtenergy/internal/iss"
	"xtenergy/internal/regress"
	"xtenergy/internal/resource"
	"xtenergy/internal/tie"
)

// Macro-model variable indices (paper Table I order).
const (
	VArith = iota
	VLoad
	VStore
	VJump
	VBranchTaken
	VBranchUntaken
	VICacheMiss
	VDCacheMiss
	VUncachedFetch
	VInterlock
	VCustomSideEffect
	// VCustomBase is the first structural variable; the ten hwlib
	// categories follow in order.
	VCustomBase

	// NumVars is the total number of macro-model variables (21).
	NumVars = VCustomBase + hwlib.NumCategories
)

var instVarNames = [VCustomBase]string{
	"arith", "load", "store", "jump", "branch-taken", "branch-untaken",
	"icache-miss", "dcache-miss", "uncached-fetch", "interlock",
	"custom-side-effect",
}

// VarName returns the display name of macro-model variable i.
func VarName(i int) string {
	switch {
	case i >= 0 && i < VCustomBase:
		return instVarNames[i]
	case i >= VCustomBase && i < NumVars:
		return "hw:" + hwlib.Category(i-VCustomBase).String()
	}
	return fmt.Sprintf("var(%d)", i)
}

// Vars is one observation of the 21 macro-model variables.
type Vars [NumVars]float64

// Extract computes the macro-model variable vector of one program run
// from its ISS statistics and the processor's compiled TIE extension
// (steps 9-10 of the paper's flow: instruction-set simulation followed
// by dynamic resource-usage analysis).
func Extract(comp *tie.Compiled, st *iss.Stats) (Vars, error) {
	var v Vars
	v[VArith] = float64(st.ClassCycles[iss.CArith])
	v[VLoad] = float64(st.ClassCycles[iss.CLoad])
	v[VStore] = float64(st.ClassCycles[iss.CStore])
	v[VJump] = float64(st.ClassCycles[iss.CJump])
	v[VBranchTaken] = float64(st.ClassCycles[iss.CBranchTaken])
	v[VBranchUntaken] = float64(st.ClassCycles[iss.CBranchUntaken])
	v[VICacheMiss] = float64(st.ICacheMisses)
	v[VDCacheMiss] = float64(st.DCacheMisses)
	v[VUncachedFetch] = float64(st.UncachedFetches)
	v[VInterlock] = float64(st.Interlocks)
	v[VCustomSideEffect] = float64(st.CustomRegfileCycles)

	sv, err := resource.FromStats(comp, st)
	if err != nil {
		return v, err
	}
	for k := 0; k < hwlib.NumCategories; k++ {
		v[VCustomBase+k] = sv[k]
	}
	return v, nil
}

// MacroModel is a characterized energy macro-model for one extensible
// processor family (base configuration + technology): the fitted energy
// coefficients plus the training diagnostics.
type MacroModel struct {
	// Coef holds the 21 energy coefficients in pJ per unit of each
	// variable (per cycle, per miss, per fetch, per interlock, or per
	// complexity-weighted active cycle).
	Coef Vars
	// CoefStdErr holds the OLS standard error of each coefficient
	// (zero for variables excluded from the fit, or when the fitting
	// variant does not define standard errors).
	CoefStdErr Vars
	// Fit holds the regression diagnostics from characterization.
	Fit *regress.Fit
}

// EstimatePJ evaluates the macro-model on a variable vector, returning
// energy in picojoules.
func (m *MacroModel) EstimatePJ(v Vars) float64 {
	var e float64
	for i, c := range m.Coef {
		e += float64(c * v[i])
	}
	return e
}
