package runspec

import (
	"testing"

	"repro/internal/adversary"
)

func TestBuildAttack(t *testing.T) {
	if spec, err := buildAttack("", 0, 0); err != nil || spec != nil {
		t.Fatalf("no attack -> (%v, %v), want (nil, nil)", spec, err)
	}
	if _, err := buildAttack("", 0.5, 0); err == nil {
		t.Fatal("-attack-frac without -attack must error")
	}
	spec, err := buildAttack("signflip", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != adversary.KindSignFlip || spec.Frac != 0.25 {
		t.Fatalf("default spec = %+v", spec)
	}
	// Dedicated flags override the inline parts.
	spec, err = buildAttack("scale:0.1:9", 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Frac != 0.5 || spec.Scale != 2 {
		t.Fatalf("overridden spec = %+v", spec)
	}
	if _, err := buildAttack("nope", 0, 0); err == nil {
		t.Fatal("unknown kind must error")
	}
	if _, err := buildAttack("signflip", 2, 0); err == nil {
		t.Fatal("fraction above one must error")
	}
}

// FuzzAttackFlag: the -attack flag pipeline never panics and anything it
// accepts is a valid, compilable spec.
func FuzzAttackFlag(f *testing.F) {
	f.Add("signflip", 0.0, 0.0)
	f.Add("scale:0.3", 0.5, 2.0)
	f.Add("sybil:0.25:2", 0.0, 0.0)
	f.Add(":::", -1.0, 1e308)
	f.Fuzz(func(t *testing.T, attack string, frac, scale float64) {
		spec, err := buildAttack(attack, frac, scale)
		if err != nil {
			return
		}
		if spec == nil {
			if attack != "" {
				t.Fatalf("buildAttack(%q) returned no spec and no error", attack)
			}
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("buildAttack(%q, %v, %v) returned invalid spec %+v: %v", attack, frac, scale, spec, verr)
		}
		if spec.Behavior() == nil {
			t.Fatalf("accepted spec %+v compiles to nil behavior", spec)
		}
	})
}
