package runspec

import (
	"testing"

	"repro/internal/fl"
)

// dtypeConfig builds the minimal valid config the -dtype flag feeds into
// fl.Config.Validate, mirroring Build's wiring (the flag value is
// forwarded verbatim; Validate is the only gate).
func dtypeConfig(dtype string) fl.Config {
	return fl.Config{Rounds: 1, LocalSteps: 1, BatchSize: 1, LocalLR: 0.1, DType: dtype}
}

func TestDTypeFlagValues(t *testing.T) {
	for _, ok := range []string{"", "f64", "f32"} {
		if err := dtypeConfig(ok).Validate(); err != nil {
			t.Fatalf("-dtype %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"f16", "F32", "float32", "64", " f64"} {
		if err := dtypeConfig(bad).Validate(); err == nil {
			t.Fatalf("-dtype %q accepted", bad)
		}
	}
}

// FuzzDTypeFlag: the -dtype flag pipeline never panics, and the only
// values Config.Validate lets through are the documented precision table
// ("", "f64", "f32") — a new entry added to the table without updating
// the flag's contract shows up here.
func FuzzDTypeFlag(f *testing.F) {
	f.Add("f64")
	f.Add("f32")
	f.Add("")
	f.Add("f16")
	f.Fuzz(func(t *testing.T, s string) {
		err := dtypeConfig(s).Validate()
		valid := s == "" || s == "f64" || s == "f32"
		if valid && err != nil {
			t.Fatalf("valid dtype %q rejected: %v", s, err)
		}
		if !valid && err == nil {
			t.Fatalf("invalid dtype %q accepted", s)
		}
	})
}
