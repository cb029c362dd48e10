package fl_test

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
)

func init() {
	fl.FrozenAlgorithms["scaffold"] = func() fl.Algorithm { return baselines.NewScaffold(1) }
	fl.FrozenAlgorithms["taco"] = func() fl.Algorithm { return core.New(core.Recommended()) }
}
