package persist

import (
	"encoding/binary"
	"fmt"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
)

// Verdict is one persisted dependence verdict: the record a store keeps
// per candidate pair and the memo file per full-table entry. Its fields
// are raw decoded values; CheckVerdict says whether they name a verdict
// the analyzer can produce.
type Verdict struct {
	Outcome   int
	Exact     bool
	Kind      int
	Vectors   [][]depvec.Direction
	DistLevel []int
	DistValue []int64
}

// AppendVerdict appends v's record.
func AppendVerdict(dst []byte, v *Verdict) []byte {
	dst = binary.AppendVarint(dst, int64(v.Outcome))
	dst = appendBool(dst, v.Exact)
	dst = binary.AppendVarint(dst, int64(v.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(v.Vectors)))
	for _, vec := range v.Vectors {
		dst = binary.AppendUvarint(dst, uint64(len(vec)))
		for _, dir := range vec {
			dst = append(dst, byte(dir))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.DistLevel)))
	for _, l := range v.DistLevel {
		dst = binary.AppendVarint(dst, int64(l))
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.DistValue)))
	for _, x := range v.DistValue {
		dst = binary.AppendVarint(dst, x)
	}
	return dst
}

// MinVerdictBytes is the fewest bytes a verdict record takes.
const MinVerdictBytes = 6

// Slabs back the lists of a run of decoded verdicts (see Take).
type Slabs struct {
	Vectors    [][]depvec.Direction
	Directions []depvec.Direction
	Levels     []int
	Values     []int64
}

// Verdict reads one verdict record into v, carving its lists off s, and
// checks it with CheckVerdict; a failure is the decoder's error.
func (d *Decoder) Verdict(v *Verdict, s *Slabs) {
	v.Outcome = d.Int()
	v.Exact = d.Bool()
	v.Kind = d.Int()
	v.Vectors = Take(&s.Vectors, d.Count(1))
	for i := range v.Vectors {
		n := d.Count(1)
		vec := Take(&s.Directions, n)
		for j, b := range d.buf[:n] {
			vec[j] = depvec.Direction(b)
		}
		d.buf = d.buf[n:]
		v.Vectors[i] = vec
	}
	v.DistLevel = Take(&s.Levels, d.Count(1))
	for i := range v.DistLevel {
		v.DistLevel[i] = d.Int()
	}
	v.DistValue = Take(&s.Values, d.Count(1))
	for i := range v.DistValue {
		v.DistValue[i] = d.Int64()
	}
	if d.err == nil {
		if err := CheckVerdict(v.Outcome, v.Kind, v.Vectors, v.DistLevel, v.DistValue); err != nil {
			d.Fail(err)
		}
	}
}

// CheckVerdict checks one persisted verdict against what the analyzer can
// produce: outcome and deciding-test kind inside their enums, direction
// bytes that name a depvec.Direction, and one distance value per distance
// level.
func CheckVerdict(outcome, kind int, vectors [][]depvec.Direction, distLevel []int, distValue []int64) error {
	switch {
	case outcome < int(dtest.Independent) || outcome > int(dtest.Maybe):
		return fmt.Errorf("outcome %d out of range", outcome)
	case kind < int(dtest.KindNone) || kind > int(dtest.KindFourierMotzkin):
		return fmt.Errorf("test kind %d out of range", kind)
	case len(distLevel) != len(distValue):
		return fmt.Errorf("%d distance levels, %d values", len(distLevel), len(distValue))
	}
	for _, v := range vectors {
		for _, b := range v {
			switch b {
			case depvec.Any, depvec.Less, depvec.Equal, depvec.Greater:
			default:
				return fmt.Errorf("direction byte %q out of range", byte(b))
			}
		}
	}
	return nil
}
