package persist

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
)

// header returns a header of f with the given versions, bound to "sig".
func header(f File, format, semantics uint64) []byte {
	b := binary.AppendUvarint([]byte(f.Magic), format)
	b = binary.AppendUvarint(b, semantics)
	return AppendString(b, "sig")
}

// TestHeader pins the one stale-versus-corrupt decision: an older format or
// semantics version is stale; a missing magic (another file kind, or a file
// written before this format), a newer version or a cut header is an error.
func TestHeader(t *testing.T) {
	cases := []struct {
		name  string
		file  []byte
		stale bool
		err   string
	}{
		{"current", AppendHeader(nil, StoreFile, "sig"), false, ""},
		{"older format", header(StoreFile, FormatVersion-1, SemanticsVersion), true, "format version"},
		{"older semantics", header(StoreFile, FormatVersion, SemanticsVersion-1), true, "semantics version"},
		{"newer format", header(StoreFile, FormatVersion+1, SemanticsVersion), false, "newer build"},
		{"newer semantics", header(StoreFile, FormatVersion, SemanticsVersion+1), false, "newer build"},
		{"other kind", AppendHeader(nil, MemoFile, "sig"), false, "not a verdict store"},
		{"no magic", []byte("\x1d\xff\x81\x03\x01\x01\x0asavedStore"), false, "not a verdict store"},
		{"cut", AppendHeader(nil, StoreFile, "sig")[:len(StoreFile.Magic)+1], false, "ends mid-record"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			binding, err := NewDecoder(c.file).Header(StoreFile)
			if c.err == "" {
				if err != nil || binding != "sig" {
					t.Fatalf("Header = %q, %v; want \"sig\"", binding, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.err) || errors.Is(err, ErrStale) != c.stale {
				t.Fatalf("Header error %v; want %q, stale=%v", err, c.err, c.stale)
			}
		})
	}
}

// TestDecoderRejects: short and trailing input, a boolean byte other than
// 0 or 1, an overlong varint and a count the bytes left cannot hold are
// errors, and the first one sticks.
func TestDecoderRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(d *Decoder)
		err  string
	}{
		{"short varint", []byte{0x80}, func(d *Decoder) { d.Uvarint() }, "ends mid-record"},
		{"short word", make([]byte, 7), func(d *Decoder) { d.Uint64() }, "ends mid-record"},
		{"short bytes", make([]byte, 31), func(d *Decoder) { d.Bytes(make([]byte, 32)) }, "ends mid-record"},
		{"short bool", nil, func(d *Decoder) { d.Bool() }, "ends mid-record"},
		{"bool", []byte{2}, func(d *Decoder) { d.Bool() }, "boolean byte 2"},
		{"overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, func(d *Decoder) { d.Int64() }, "overflows"},
		{"huge count", binary.AppendUvarint(nil, 1<<40), func(d *Decoder) { d.Count(1) }, "exceeds"},
		{"long string", append(binary.AppendUvarint(nil, 4), "abc"...), func(d *Decoder) { _ = d.String() }, "exceeds"},
		{"trailing", []byte{1, 2}, func(d *Decoder) { d.Uvarint() }, "1 bytes of trailing input"},
		{"sticky", []byte{2, 0}, func(d *Decoder) { d.Bool(); d.Bool() }, "boolean byte 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDecoder(c.in)
			c.read(d)
			if err := d.End(); err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("error %v, want %q", err, c.err)
			}
		})
	}
}

// TestVerdictRoundTrip: a verdict decodes to what was encoded, its lists
// carved off the slabs; CheckVerdict failures are the decoder's error.
func TestVerdictRoundTrip(t *testing.T) {
	want := []Verdict{
		{Outcome: int(dtest.Dependent), Exact: true, Kind: int(dtest.KindAcyclic),
			Vectors:   [][]depvec.Direction{{depvec.Less, depvec.Equal}, {depvec.Equal, depvec.Any}},
			DistLevel: []int{1}, DistValue: []int64{-3}},
		{Outcome: int(dtest.Independent), Kind: int(dtest.KindSVPC)},
		// An empty list decodes as nil.
		{Outcome: int(dtest.Maybe), Kind: int(dtest.KindFourierMotzkin), Vectors: [][]depvec.Direction{nil}},
	}
	var b []byte
	for i := range want {
		b = AppendVerdict(b, &want[i])
	}
	d := NewDecoder(b)
	var slabs Slabs
	for i := range want {
		var v Verdict
		d.Verdict(&v, &slabs)
		if !reflect.DeepEqual(v, want[i]) {
			t.Errorf("verdict %d = %+v, want %+v", i, v, want[i])
		}
	}
	if err := d.End(); err != nil {
		t.Fatal(err)
	}

	for name, v := range map[string]Verdict{
		"outcome":   {Outcome: int(dtest.Maybe) + 1},
		"kind":      {Kind: int(dtest.KindFourierMotzkin) + 1},
		"direction": {Vectors: [][]depvec.Direction{{'x'}}},
		"distances": {DistLevel: []int{0, 1}, DistValue: []int64{2}},
	} {
		d := NewDecoder(AppendVerdict(nil, &v))
		d.Verdict(new(Verdict), &slabs)
		if d.Err() == nil {
			t.Errorf("%s: invalid verdict decoded without error", name)
		}
	}
}

// TestTake: carved slices are capped and disjoint, and a short slab is
// replaced without moving what was carved.
func TestTake(t *testing.T) {
	slab := make([]int, 0, 3)
	a := Take(&slab, 2)
	b := Take(&slab, 2) // replaces the slab
	a[0], b[0] = 1, 2
	if cap(a) != 2 || cap(b) != 2 || a[0] != 1 || cap(slab) < 4 {
		t.Fatalf("a=%v (cap %d) b=%v (cap %d) slab cap %d", a, cap(a), b, cap(b), cap(slab))
	}
	if Take(&slab, 0) != nil {
		t.Fatal("Take of nothing is not nil")
	}
}
