// Package persist is the one binary format of the two files the analyzer
// keeps across runs: the corpus verdict store (corpus.Store) and the memo
// file (core.Analyzer.SaveMemo). Both are length-prefixed encoding/binary
// varint documents with the same header and the same verdict record, and
// both are read by the same validating Decoder, so a truncated,
// hand-edited or hostile file is rejected with an error instead of
// panicking a later hit or sizing an allocation the input cannot back.
//
// Layout (uvarint: unsigned varint; varint: zigzag varint; string:
// uvarint length, then the bytes):
//
//	header  = magic  format:uvarint  semantics:uvarint  binding:string
//	verdict = outcome:varint  exact:byte(0|1)  kind:varint
//	          vectors:uvarint { len:uvarint  direction bytes }
//	          levels:uvarint { level:varint }
//	          values:uvarint { value:varint }
//
// The binding is the store's options signature or the memo file's key
// scheme; the body after the header belongs to the file's owner, as
// counted records of varints, strings and verdicts.
//
// A file with the magic but an older format or semantics version is stale
// (ErrStale): its owner starts empty and the next save replaces it. A file
// without the magic, from a newer build, under another binding, or with
// any invalid record is an error.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// FormatVersion is the version of the layout. Bump it with any change to
// the bytes a file holds; files written under an older one are stale. Both
// files share it: version 2 added the verdict store's file index, so memo
// files written under version 1 are stale too.
const FormatVersion = 2

// SemanticsVersion names the analyzer behaviour a persisted verdict was
// produced under. Bump it whenever the front end's candidates for a source,
// or the verdicts, direction vectors, distances or trip reasons the
// analyzer reports for a candidate, change: files written under an older
// one are stale. TestSemanticsGoldenDigest (internal/workload) pins a
// digest of both under this number and fails when they change without a
// bump. Version 2: a dependent pair that shares no loop reports the empty
// direction vector once, not twice. Version 3: checked arithmetic reports
// the overflows at math.MinInt64 it used to wrap (MulChecked(MinInt64, -1),
// differences negating MinInt64), and the direction walk keeps a direction
// whose constraint overflows, so a verdict near the int64 limits may
// differ.
const SemanticsVersion = 3

// ErrStale marks a file written under an older format or semantics
// version: a cache its owner may drop and rebuild, not a corrupt file.
var ErrStale = errors.New("stale file")

// File is one of the two persisted files, told apart by its magic.
type File struct{ Magic, Name string }

var (
	// StoreFile is the corpus verdict store.
	StoreFile = File{"exactdep store\n", "verdict store"}
	// MemoFile is the analyzer's memo file.
	MemoFile = File{"exactdep memo\n", "memo file"}
)

// AppendHeader appends the header of file f, bound to binding.
func AppendHeader(dst []byte, f File, binding string) []byte {
	dst = append(dst, f.Magic...)
	dst = binary.AppendUvarint(dst, FormatVersion)
	dst = binary.AppendUvarint(dst, SemanticsVersion)
	return AppendString(dst, binding)
}

// AppendString appends s with its length.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBool appends b as the byte 0 or 1 (Decoder.Bool reads it).
func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// A Decoder reads one file held in memory. Its first error sticks: every
// later read returns a zero value, so callers check Err once per record.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over the whole file b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

var errShort = errors.New("input ends mid-record")

// Err returns the first error the decoder met.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's error unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Header reads the header of file f and returns its binding. It returns
// an error wrapping ErrStale for a file written under an older format or
// semantics version, and a plain error for a file without f's magic or
// from a newer build.
func (d *Decoder) Header(f File) (string, error) {
	if !bytes.HasPrefix(d.buf, []byte(f.Magic)) {
		return "", fmt.Errorf("not a %s (no %q header): written before this format, or not this kind of file", f.Name, f.Magic)
	}
	d.buf = d.buf[len(f.Magic):]
	if v := d.Uvarint(); d.err == nil && v != FormatVersion {
		return "", versionError(f, "format", v, FormatVersion)
	}
	if v := d.Uvarint(); d.err == nil && v != SemanticsVersion {
		return "", versionError(f, "semantics", v, SemanticsVersion)
	}
	binding := d.String()
	if d.err != nil {
		return "", fmt.Errorf("%s header: %w", f.Name, d.err)
	}
	return binding, nil
}

// versionError is the one place an unreadable version is judged: older is
// stale, newer is an error.
func versionError(f File, what string, got, want uint64) error {
	if got < want {
		return fmt.Errorf("%w: %s written under %s version %d, this build reads %d", ErrStale, f.Name, what, got, want)
	}
	return fmt.Errorf("%s written by a newer build: %s version %d, this build reads %d", f.Name, what, got, want)
}

// End reports the decoder's error, or an error if input is left over.
func (d *Decoder) End() error {
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("%d bytes of trailing input", len(d.buf))
	}
	return d.err
}

// Uvarint reads an unsigned varint. Most values in both files fit one
// byte, which the inlined fast path reads.
func (d *Decoder) Uvarint() uint64 {
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		v := d.buf[0]
		d.buf = d.buf[1:]
		return uint64(v)
	}
	return d.uvarint()
}

func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		if n < 0 {
			d.Fail(errors.New("varint overflows 64 bits"))
		} else {
			d.Fail(errShort)
		}
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int64 reads a zigzag varint.
func (d *Decoder) Int64() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint as an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bytes reads the next len(dst) bytes into dst.
func (d *Decoder) Bytes(dst []byte) {
	if len(d.buf) < len(dst) {
		d.Fail(errShort)
		return
	}
	d.buf = d.buf[copy(dst, d.buf):]
}

// Uint64 reads a fixed eight-byte little-endian word.
func (d *Decoder) Uint64() uint64 {
	if len(d.buf) < 8 {
		d.Fail(errShort)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if len(d.buf) == 0 {
		d.Fail(errShort)
		return false
	}
	b := d.buf[0]
	if b > 1 {
		d.Fail(fmt.Errorf("boolean byte %d, want 0 or 1", b))
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// Count reads a count of things that take at least size bytes each and
// rejects it unless the input left could hold that many, so no count read
// from a file sizes an allocation the file cannot back.
func (d *Decoder) Count(size int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/size) {
		d.Fail(fmt.Errorf("count %d exceeds what the %d bytes left can hold", n, len(d.buf)))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Count(1)
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Take carves the next n elements off a slab and returns them capped, so
// an append to one carved slice cannot run into the next; it returns nil
// for n == 0. A slab too short for n is replaced by a fresh one of at least
// twice its capacity: what was carved before keeps the old array alive, so
// nothing is copied. Decoders size one slab per element type for a whole
// run of records, so the run costs a fixed number of allocations however
// many vectors and distances it holds.
func Take[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(2*cap(*slab), n))
	}
	i := len(*slab)
	*slab = (*slab)[:i+n]
	return (*slab)[i : i+n : i+n]
}
