package main

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/rng"
	"repro/internal/wire"
)

// layerBudget is how long each timed layer loop runs at least.
const layerBudget = 50 * time.Millisecond

// encodeCost re-encodes deltas captured at EndLocal with the run's codec
// and returns the encode time per update and the dense-over-encoded
// byte ratio. The dense workloads run the identity codec, a copy.
func encodeCost(spec compress.Spec, deltas [][]float64, seed uint64) (usPerUpdate, ratio float64, err error) {
	codec, err := spec.Codec()
	if err != nil {
		return 0, 0, err
	}
	d := len(deltas[0])
	pays := make([]compress.Payload, len(deltas))
	for i := range pays {
		codec.Grow(&pays[i], d)
	}
	scratch := make([]float64, d)
	r := rng.New(seed)
	n := 0
	t0 := now()
	for n < len(deltas) || time.Duration(now()-t0) < layerBudget {
		i := n % len(deltas)
		codec.Encode(&pays[i], deltas[i], r, scratch)
		n++
	}
	us := float64(now()-t0) / 1e3 / float64(n)
	var dense, enc int
	for i := range pays {
		dense += 8 * d
		enc += pays[i].Bytes()
	}
	return us, float64(dense) / float64(enc), nil
}

// marshalCost times wire.AppendPayload followed by wire.UnmarshalPayload
// on payloads built from captured deltas, and checks that every payload
// decodes to what was encoded.
func marshalCost(spec compress.Spec, deltas [][]float64, seed uint64) (usPerUpdate float64, err error) {
	codec, err := spec.Codec()
	if err != nil {
		return 0, err
	}
	d := len(deltas[0])
	pays := make([]compress.Payload, len(deltas))
	scratch := make([]float64, d)
	r := rng.New(seed)
	for i := range pays {
		codec.Grow(&pays[i], d)
		codec.Encode(&pays[i], deltas[i], r, scratch)
	}
	var buf []byte
	var got compress.Payload
	want, back := make([]float64, d), make([]float64, d)
	for i := range pays {
		buf = wire.AppendPayload(buf[:0], &pays[i])
		if _, err := wire.UnmarshalPayload(&got, buf); err != nil {
			return 0, fmt.Errorf("unmarshal captured payload %d: %w", i, err)
		}
		codec.Decode(want, &pays[i])
		codec.Decode(back, &got)
		for j := range want {
			if want[j] != back[j] {
				return 0, fmt.Errorf("captured payload %d: coordinate %d decodes to %v after the wire, %v before", i, j, back[j], want[j])
			}
		}
	}
	n := 0
	t0 := now()
	for n < len(pays) || time.Duration(now()-t0) < layerBudget {
		buf = wire.AppendPayload(buf[:0], &pays[n%len(pays)])
		if _, err := wire.UnmarshalPayload(&got, buf); err != nil {
			return 0, err
		}
		n++
	}
	return float64(now()-t0) / 1e3 / float64(n), nil
}
