package runspec

import (
	"testing"

	"repro/internal/compress"
)

func TestBuildCompress(t *testing.T) {
	if spec, err := buildCompress("", 0); err != nil || spec != (compress.Spec{}) {
		t.Fatalf("no codec -> (%+v, %v), want zero spec", spec, err)
	}
	spec, err := buildCompress("topk", 0)
	if err != nil || spec.Kind != compress.KindTopK || spec.TopKFrac != 0 {
		t.Fatalf("buildCompress(topk) = (%+v, %v)", spec, err)
	}
	// The dedicated flag overrides the inline fraction.
	spec, err = buildCompress("topk:0.5", 0.02)
	if err != nil || spec.TopKFrac != 0.02 {
		t.Fatalf("overridden spec = (%+v, %v)", spec, err)
	}
	spec, err = buildCompress("int8:128", 0)
	if err != nil || spec.Chunk != 128 {
		t.Fatalf("buildCompress(int8:128) = (%+v, %v)", spec, err)
	}
	for _, bad := range []struct {
		spec string
		frac float64
	}{
		{"gzip", 0},
		{"topk:2", 0},
		{"topk", 1.5},
		{"int8", 0.1}, // -topk without a topk codec
		{"", 0.01},
	} {
		if _, err := buildCompress(bad.spec, bad.frac); err == nil {
			t.Fatalf("buildCompress(%q, %v): expected an error", bad.spec, bad.frac)
		}
	}
}
