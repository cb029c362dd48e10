package runspec

import (
	"testing"

	"repro/internal/fault"
)

func TestBuildFaults(t *testing.T) {
	if specs, err := fault.ParseFaults(""); err != nil || specs != nil {
		t.Fatalf("no faults -> (%v, %v), want (nil, nil)", specs, err)
	}
	specs, err := fault.ParseFaults("crash")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Kind != fault.KindCrash || specs[0].Frac != 0.25 {
		t.Fatalf("default spec = %+v", specs)
	}
	specs, err = fault.ParseFaults("crash:0.2,slow:0.3:4,servercrash:10")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[1].Param != 4 || specs[2].Round != 10 {
		t.Fatalf("parsed specs = %+v", specs)
	}
	for _, bad := range []string{"nope", "crash:2", "slow:0.5:0.5", "servercrash:0", "crash:,"} {
		if _, err := fault.ParseFaults(bad); err == nil {
			t.Fatalf("fault.ParseFaults(%q) accepted", bad)
		}
	}
}

// FuzzFaultFlag: the -fault flag pipeline (Build hands the value to
// fault.ParseFaults verbatim) never panics and anything it
// accepts is a valid spec list.
func FuzzFaultFlag(f *testing.F) {
	f.Add("crash")
	f.Add("crash:0.2,drop:0.1,dup:0.3,slow:0.5:4")
	f.Add("servercrash:10")
	f.Add(":::,,,")
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := fault.ParseFaults(s)
		if err != nil {
			return
		}
		for _, spec := range specs {
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("fault.ParseFaults(%q) returned invalid spec %+v: %v", s, spec, verr)
			}
		}
	})
}
