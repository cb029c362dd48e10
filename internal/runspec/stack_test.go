package runspec

import (
	"testing"

	"repro/internal/aggstack"
)

func TestBuildStack(t *testing.T) {
	if spec, err := aggstack.ParseStack(""); err != nil || !spec.Empty() {
		t.Fatalf("no stack -> (%+v, %v), want empty", spec, err)
	}
	spec, err := aggstack.ParseStack("zeroing|clip:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Stages) != 2 || spec.Stages[0].Kind != aggstack.StageZeroing ||
		spec.Stages[1].Kind != aggstack.StageClipping || spec.Stages[1].Norm != 5 {
		t.Fatalf("parsed stack = %+v", spec)
	}
	for _, bad := range []string{"nope", "zeroing:0", "clip:-1", "zeroing||clip"} {
		if _, err := aggstack.ParseStack(bad); err == nil {
			t.Fatalf("aggstack.ParseStack(%q) accepted", bad)
		}
	}
}

func TestBuildServerOpt(t *testing.T) {
	if spec, err := aggstack.ParseServerOpt(""); err != nil || !spec.None() {
		t.Fatalf("no optimizer -> (%+v, %v), want none", spec, err)
	}
	spec, err := aggstack.ParseServerOpt("adam:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != aggstack.OptAdam || spec.LR != 0.05 {
		t.Fatalf("parsed optimizer = %+v", spec)
	}
	for _, bad := range []string{"momentum", "adam:-1", "adam:0.1:2"} {
		if _, err := aggstack.ParseServerOpt(bad); err == nil {
			t.Fatalf("aggstack.ParseServerOpt(%q) accepted", bad)
		}
	}
}

// FuzzStackFlag: the -aggstack/-serveropt flag pipelines never panic and
// anything they accept is a valid, buildable spec.
func FuzzStackFlag(f *testing.F) {
	f.Add("zeroing|clip", "adam")
	f.Add("clip:5", "fedsgd:1")
	f.Add("none", "yogi:0.01")
	f.Add(":::||", ":::")
	f.Fuzz(func(t *testing.T, stack, opt string) {
		if spec, err := aggstack.ParseStack(stack); err == nil {
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("aggstack.ParseStack(%q) returned invalid spec %+v: %v", stack, spec, verr)
			}
			if _, serr := aggstack.NewStages(spec); serr != nil {
				t.Fatalf("aggstack.ParseStack(%q) spec not buildable: %v", stack, serr)
			}
		}
		if spec, err := aggstack.ParseServerOpt(opt); err == nil {
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("aggstack.ParseServerOpt(%q) returned invalid spec %+v: %v", opt, spec, verr)
			}
			if _, oerr := aggstack.NewOptimizer(spec); oerr != nil {
				t.Fatalf("aggstack.ParseServerOpt(%q) spec not buildable: %v", opt, oerr)
			}
		}
	})
}
