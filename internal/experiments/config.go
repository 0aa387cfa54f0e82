package experiments

import (
	"fmt"
	"math"
	"strings"

	"xtenergy/internal/cache"
	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
)

// The paper's premise is that the macro-model characterizes one
// *processor family* (base configuration + technology): changing the
// configurable options — cache architecture, optional functional units —
// changes the coefficients, so each configuration is characterized once
// and then reused for any custom-instruction extension. This experiment
// demonstrates both halves: re-characterizing a second configuration
// restores accuracy, while applying the first configuration's model to
// the second degrades it.

// AltConfig returns a second base configuration: half-size, 2-way
// caches with a longer miss penalty, and no 32-bit multiplier option.
func AltConfig() procgen.Config {
	cfg := procgen.Default()
	cfg.Name = "T1040-small-cache"
	cfg.ICache = cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Ways: 2, MissPenalty: 12}
	cfg.DCache = cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Ways: 2, MissPenalty: 14}
	cfg.HasMul32 = false
	return cfg
}

// ConfigSensitivityResult summarizes the configuration experiment.
type ConfigSensitivityResult struct {
	BaseName, AltName string

	// Self-application errors (Table II-style mean/max |error| on the
	// ten apps) of each configuration's own model.
	BaseSelfMeanPct, BaseSelfMaxPct float64
	AltSelfMeanPct, AltSelfMaxPct   float64

	// Cross-application: the base configuration's model estimating
	// applications running on the alternative configuration.
	CrossMeanPct, CrossMaxPct float64

	// Selected coefficient changes between the two characterizations.
	BaseCoef, AltCoef core.Vars
}

// ConfigSensitivity characterizes the alternative configuration and
// scores self- and cross-applied models on the ten applications.
func (s *Suite) ConfigSensitivity() (ConfigSensitivityResult, error) {
	baseCR, err := s.Characterization()
	if err != nil {
		return ConfigSensitivityResult{}, err
	}
	if _, err := s.Table2(); err != nil { // fills the base app cache
		return ConfigSensitivityResult{}, err
	}

	altCfg := AltConfig()
	altCR, err := core.Characterize(s.context(), altCfg, s.Tech, workloads.CharacterizationSuite(), core.Options{Regress: s.Opts.Regress})
	if err != nil {
		return ConfigSensitivityResult{}, fmt.Errorf("experiments: alt characterization: %w", err)
	}

	res := ConfigSensitivityResult{
		BaseName: s.Config.Name,
		AltName:  altCfg.Name,
		BaseCoef: baseCR.Model.Coef,
		AltCoef:  altCR.Model.Coef,
	}

	// Base model on base processor (from the cached Table II data).
	for _, a := range s.appObs {
		errPct := 100 * (baseCR.Model.EstimatePJ(a.vars) - a.refPJ) / a.refPJ
		res.BaseSelfMeanPct += math.Abs(errPct)
		if math.Abs(errPct) > res.BaseSelfMaxPct {
			res.BaseSelfMaxPct = math.Abs(errPct)
		}
	}
	res.BaseSelfMeanPct /= float64(len(s.appObs))

	// Alt processor: run each app once, score both models against the
	// alt reference.
	var altSelfTot, crossTot float64
	apps := workloads.Applications()
	for _, w := range apps {
		est, err := altCR.Model.EstimateWorkload(altCfg, w)
		if err != nil {
			return res, err
		}
		ref, err := core.ReferenceEnergy(s.context(), altCfg, s.Tech, w)
		if err != nil {
			return res, err
		}
		selfPct := 100 * (est.EnergyPJ - ref.EnergyPJ) / ref.EnergyPJ
		crossPct := 100 * (baseCR.Model.EstimatePJ(est.Vars) - ref.EnergyPJ) / ref.EnergyPJ
		altSelfTot += math.Abs(selfPct)
		crossTot += math.Abs(crossPct)
		if math.Abs(selfPct) > res.AltSelfMaxPct {
			res.AltSelfMaxPct = math.Abs(selfPct)
		}
		if math.Abs(crossPct) > res.CrossMaxPct {
			res.CrossMaxPct = math.Abs(crossPct)
		}
	}
	res.AltSelfMeanPct = altSelfTot / float64(len(apps))
	res.CrossMeanPct = crossTot / float64(len(apps))
	return res, nil
}

// FormatConfigSensitivity renders the configuration experiment.
func FormatConfigSensitivity(r ConfigSensitivityResult) string {
	var b strings.Builder
	b.WriteString("CONFIG SENSITIVITY: the macro-model is per processor configuration\n")
	fmt.Fprintf(&b, "%-42s %14s %13s\n", "model applied to apps on...", "mean |err|", "max |err|")
	fmt.Fprintf(&b, "%-42s %13.2f%% %12.2f%%\n",
		r.BaseName+" model on "+r.BaseName, r.BaseSelfMeanPct, r.BaseSelfMaxPct)
	fmt.Fprintf(&b, "%-42s %13.2f%% %12.2f%%\n",
		r.AltName+" model on "+r.AltName, r.AltSelfMeanPct, r.AltSelfMaxPct)
	fmt.Fprintf(&b, "%-42s %13.2f%% %12.2f%%\n",
		r.BaseName+" model on "+r.AltName+" (wrong)", r.CrossMeanPct, r.CrossMaxPct)
	b.WriteString("coefficient shifts under the small-cache/no-multiplier configuration:\n")
	for _, i := range []int{core.VICacheMiss, core.VDCacheMiss, core.VArith, core.VLoad} {
		fmt.Fprintf(&b, "  %-16s %9.1f -> %9.1f pJ\n", core.VarName(i), r.BaseCoef[i], r.AltCoef[i])
	}
	return b.String()
}
