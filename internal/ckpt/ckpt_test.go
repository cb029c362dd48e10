package ckpt

import (
	"bytes"
	"io"
	"math"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	var b bytes.Buffer
	for _, v := range []uint64{0, 1, math.MaxUint64} {
		if err := WriteU64(&b, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []int{0, -1, 1 << 40, math.MinInt} {
		if err := WriteInt(&b, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []float64{0, -0.5, math.Inf(-1), math.Pi} {
		if err := WriteF64(&b, v); err != nil {
			t.Fatal(err)
		}
	}
	WriteBool(&b, true)
	WriteBool(&b, false)
	WriteF64(&b, math.NaN())

	r := bytes.NewReader(b.Bytes())
	for _, want := range []uint64{0, 1, math.MaxUint64} {
		if got, err := ReadU64(r); err != nil || got != want {
			t.Fatalf("ReadU64 = %d, %v; want %d", got, err, want)
		}
	}
	for _, want := range []int{0, -1, 1 << 40, math.MinInt} {
		if got, err := ReadInt(r); err != nil || got != want {
			t.Fatalf("ReadInt = %d, %v; want %d", got, err, want)
		}
	}
	for _, want := range []float64{0, -0.5, math.Inf(-1), math.Pi} {
		if got, err := ReadF64(r); err != nil || got != want {
			t.Fatalf("ReadF64 = %v, %v; want %v", got, err, want)
		}
	}
	if got, err := ReadBool(r); err != nil || !got {
		t.Fatalf("ReadBool = %v, %v; want true", got, err)
	}
	if got, err := ReadBool(r); err != nil || got {
		t.Fatalf("ReadBool = %v, %v; want false", got, err)
	}
	// NaN round-trips bit-exactly through the IEEE encoding.
	if got, err := ReadF64(r); err != nil || !math.IsNaN(got) {
		t.Fatalf("ReadF64 = %v, %v; want NaN", got, err)
	}
}

func TestSliceRoundTrip(t *testing.T) {
	var b bytes.Buffer
	f64s := []float64{1.5, -2.25, 0}
	ints := []int{3, -7, 1 << 33}
	raw := []byte("checkpoint")
	rows := [][]float64{{1, 2}, nil, {}, {3}}
	WriteF64s(&b, f64s)
	WriteF64s(&b, nil)
	WriteInts(&b, ints)
	WriteBytes(&b, raw)
	WriteF64Rows(&b, rows)

	r := bytes.NewReader(b.Bytes())
	got, err := ReadF64s(r)
	if err != nil || len(got) != len(f64s) {
		t.Fatalf("ReadF64s = %v, %v", got, err)
	}
	for i := range f64s {
		if got[i] != f64s[i] {
			t.Fatalf("f64s[%d] = %v, want %v", i, got[i], f64s[i])
		}
	}
	if got, err := ReadF64s(r); err != nil || got != nil {
		t.Fatalf("nil slice decoded as %v, %v", got, err)
	}
	gotInts, err := ReadInts(r)
	if err != nil || len(gotInts) != len(ints) {
		t.Fatalf("ReadInts = %v, %v", gotInts, err)
	}
	for i := range ints {
		if gotInts[i] != ints[i] {
			t.Fatalf("ints[%d] = %d, want %d", i, gotInts[i], ints[i])
		}
	}
	gotRaw, err := ReadBytes(r)
	if err != nil || !bytes.Equal(gotRaw, raw) {
		t.Fatalf("ReadBytes = %q, %v", gotRaw, err)
	}
	gotRows, err := ReadF64Rows(r)
	if err != nil || len(gotRows) != len(rows) {
		t.Fatalf("ReadF64Rows = %v, %v", gotRows, err)
	}
	if gotRows[1] != nil {
		t.Fatalf("nil row decoded as %v", gotRows[1])
	}
	if gotRows[2] == nil || len(gotRows[2]) != 0 {
		t.Fatalf("empty row decoded as %v", gotRows[2])
	}
	if gotRows[0][1] != 2 || gotRows[3][0] != 3 {
		t.Fatalf("row contents mismatch: %v", gotRows)
	}
}

func TestReadF64sInto(t *testing.T) {
	var b bytes.Buffer
	WriteF64s(&b, []float64{1, 2, 3})
	dst := make([]float64, 3)
	if err := ReadF64sInto(bytes.NewReader(b.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 3 {
		t.Fatalf("dst = %v", dst)
	}
	short := make([]float64, 2)
	if err := ReadF64sInto(bytes.NewReader(b.Bytes()), short); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCorruptInputErrors(t *testing.T) {
	// Forged huge length: rejected (over limit) or fails on truncation —
	// never a length-sized allocation up front.
	var b bytes.Buffer
	WriteU64(&b, uint64(MaxElems)+1)
	if _, err := ReadF64s(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("oversized length accepted")
	}
	b.Reset()
	WriteU64(&b, uint64(MaxElems)) // within limit, but no payload follows
	if _, err := ReadF64s(bytes.NewReader(b.Bytes())); err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Fatalf("truncated payload: err = %v", err)
	}
	if _, err := ReadBool(bytes.NewReader([]byte{7})); err == nil {
		t.Fatal("invalid bool byte accepted")
	}
	if _, err := ReadU64(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("short read accepted")
	}
}

type fakeCursor struct{ state []byte }

func (c *fakeCursor) MarshalBinary() ([]byte, error) { return c.state, nil }
func (c *fakeCursor) UnmarshalBinary(d []byte) error { c.state = append([]byte(nil), d...); return nil }

func TestCursorRoundTripAndSkip(t *testing.T) {
	var b bytes.Buffer
	src := &fakeCursor{state: []byte{9, 8, 7}}
	if err := WriteCursor(&b, src); err != nil {
		t.Fatal(err)
	}
	WriteInt(&b, 42)

	dst := &fakeCursor{}
	r := bytes.NewReader(b.Bytes())
	if err := ReadCursor(r, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.state, src.state) {
		t.Fatalf("cursor state = %v", dst.state)
	}
	// Skip must consume exactly the cursor's bytes.
	r = bytes.NewReader(b.Bytes())
	if err := SkipCursor(r); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadInt(r); err != nil || v != 42 {
		t.Fatalf("after skip: %d, %v", v, err)
	}
}
