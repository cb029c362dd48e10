package fl

import (
	"reflect"
	"testing"

	"repro/internal/compress"
)

// serveFingerprintExempt lists the Config fields serveFingerprint leaves
// out on purpose. A worker never reads a server-only field, a
// process-local field cannot change results, and validateWire refuses to
// serve the rest, so server and workers need not agree on any of them.
var serveFingerprintExempt = map[string]string{
	"Parallelism":        "process-local: slot count; results are bit-identical at any parallelism",
	"EvalEvery":          "server-only: the server evaluates",
	"Freeloaders":        "rejected by validateWire",
	"Adversaries":        "rejected by validateWire",
	"Devices":            "server-only: the server models device time and availability",
	"Faults":             "server-only: resolved from server-owned streams before dispatch",
	"FaultRetries":       "server-only: retries are server dispatches",
	"FaultTimeoutFactor": "process-local: a worker reads it only to size its read deadline",
	"FaultBackoffSec":    "server-only: backoff schedules server dispatches",
	"Quorum":             "server-only: the server commits rounds",
	"AggStack":           "server-only: stages run before the server's aggregation",
	"ServerOpt":          "server-only: applied to the server's aggregate",
	"CheckpointEvery":    "server-only: the server checkpoints",
	"OnCheckpoint":       "server-only: the server checkpoints",
}

// TestServeFingerprintCoversConfig: every Config field either changes
// serveFingerprint when perturbed or is exempted above with a reason. A
// new field fails here until someone decides which it is.
func TestServeFingerprintCoversConfig(t *testing.T) {
	base := Config{
		Rounds: 3, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, GlobalLR: 0.2, Seed: 11, DType: "f64",
		ParticipationFraction: 0.5, Policy: PolicyDeadline, RoundDeadlineSec: 1.5, AsyncBuffer: 2,
		Compress: compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25, Chunk: 64},
	}
	fp := func(c *Config) uint64 { return serveFingerprint(c, "FedAvg", "adult", 12, 100) }
	want := fp(&base)

	typ := reflect.TypeOf(base)
	for name := range serveFingerprintExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempt field %s is not a Config field", name)
		}
	}
	for _, l := range leaves(typ, "", nil) {
		if _, ok := serveFingerprintExempt[typ.Field(l.index[0]).Name]; ok {
			continue
		}
		// Each leaf is perturbed on a fresh copy, so the others stay at base.
		c := base
		if !perturb(reflect.ValueOf(&c).Elem().FieldByIndex(l.index)) {
			t.Errorf("%s (%s) is neither fingerprinted nor exempt", l.path, l.typ)
		} else if fp(&c) == want {
			t.Errorf("%s changes without changing serveFingerprint: fingerprint it or exempt it with a reason", l.path)
		}
	}
}

type leaf struct {
	path  string
	index []int
	typ   reflect.Type
}

// leaves lists every non-struct field under the struct type t, depth
// first, with its dotted path and field-index path.
func leaves(t reflect.Type, path string, index []int) []leaf {
	var out []leaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		p := path + f.Name
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, p+".", idx)...)
		} else {
			out = append(out, leaf{p, idx, f.Type})
		}
	}
	return out
}

// perturb changes a scalar field to a different value; it reports false
// for kinds it cannot perturb (slices, funcs, maps).
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		return false
	}
	return true
}
