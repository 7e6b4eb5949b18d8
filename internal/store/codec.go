package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// The codec layer: a small checksummed binary vocabulary every on-disk
// structure in this package is built from. Framing is uniform — a
// 4-byte magic, a format-version byte, the payload, and a trailing
// CRC-32C of magic+version+payload — so every reader can reject
// truncated or corrupt files instead of mis-parsing them. Integers are
// varints (zigzag for signed), floats are IEEE-754 bits little-endian;
// slice lengths are validated and preallocation is capped so hostile
// lengths cannot force huge allocations before the data proves itself.

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checksum mismatch or structural damage in a
// store file. Recovery treats it as "this artifact does not exist".
var ErrCorrupt = errors.New("store: corrupt data")

// errUnsupportedVersion reports a frame at a format version this binary
// does not read. It is not corruption: recovery fails the boot on an
// intact frame that carries it rather than skipping it.
var errUnsupportedVersion = errors.New("unsupported")

// maxSliceLen bounds any single length field a codec reader accepts.
const maxSliceLen = 1 << 31

// preallocCap bounds optimistic preallocation for untrusted lengths.
const preallocCap = 1 << 16

// cw is a checksumming writer: everything written flows through the
// CRC so the trailer can seal the frame.
type cw struct {
	w       *bufio.Writer
	crc     hash.Hash32
	err     error
	scratch [binary.MaxVarintLen64]byte
}

func newCW(w io.Writer) *cw {
	return &cw{w: bufio.NewWriter(w), crc: crc32.New(castagnoli)}
}

func (c *cw) bytes(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Write(p); err != nil {
		c.err = err
		return
	}
	c.crc.Write(p)
}

func (c *cw) u64(v uint64) {
	n := binary.PutUvarint(c.scratch[:], v)
	c.bytes(c.scratch[:n])
}

func (c *cw) i64(v int64) {
	n := binary.PutVarint(c.scratch[:], v)
	c.bytes(c.scratch[:n])
}

func (c *cw) bool(v bool) {
	if v {
		c.u64(1)
	} else {
		c.u64(0)
	}
}

func (c *cw) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	c.bytes(b[:])
}

func (c *cw) str(s string) {
	c.u64(uint64(len(s)))
	c.bytes([]byte(s))
}

func (c *cw) ints(s []int) {
	c.u64(uint64(len(s)))
	for _, v := range s {
		c.i64(int64(v))
	}
}

// intsDelta encodes an int slice as its first value followed by
// consecutive differences, each zigzag-varint. Index arrays — CSR row
// pointers, per-column row indices, head tables — are near-monotone
// with small strides, so the diffs collapse to one byte each where the
// plain encoding pays one byte per significant digit pair. Occasional
// backward jumps (column boundaries) cost a few bytes and stay exact:
// the transform is lossless for any contents.
func (c *cw) intsDelta(s []int) {
	c.u64(uint64(len(s)))
	prev := int64(0)
	for _, v := range s {
		c.i64(int64(v) - prev)
		prev = int64(v)
	}
}

func (c *cr) intsDelta() []int {
	n := c.length(maxSliceLen)
	if c.err != nil {
		return nil
	}
	out := make([]int, 0, min(n, preallocCap))
	prev := int64(0)
	for i := 0; i < n && c.err == nil; i++ {
		prev += c.i64()
		if int64(int(prev)) != prev {
			c.fail(fmt.Errorf("%w: delta-coded integer %d overflows int", ErrCorrupt, prev))
			return nil
		}
		out = append(out, int(prev))
	}
	if c.err != nil {
		return nil
	}
	return out
}

func (c *cw) floats(s []float64) {
	c.u64(uint64(len(s)))
	for _, v := range s {
		c.f64(v)
	}
}

// seal writes the CRC trailer (not itself checksummed) and flushes.
func (c *cw) seal() error {
	if c.err != nil {
		return c.err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], c.crc.Sum32())
	if _, err := c.w.Write(b[:]); err != nil {
		return err
	}
	return c.w.Flush()
}

// cr is the checksumming reader mirroring cw. Every read feeds the
// CRC; verify compares against the stored trailer once the structural
// read is complete.
type cr struct {
	r   *bufio.Reader
	crc hash.Hash32
	err error
}

func newCR(r io.Reader) *cr {
	return &cr{r: bufio.NewReader(r), crc: crc32.New(castagnoli)}
}

func (c *cr) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *cr) bytes(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return
	}
	c.crc.Write(p)
}

// byteReader adapts the checksum accounting to binary.ReadUvarint.
type byteReader struct{ c *cr }

func (b byteReader) ReadByte() (byte, error) {
	v, err := b.c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	b.c.crc.Write([]byte{v})
	return v, nil
}

func (c *cr) u64() uint64 {
	if c.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(byteReader{c})
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return 0
	}
	return v
}

func (c *cr) i64() int64 {
	if c.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(byteReader{c})
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return 0
	}
	return v
}

func (c *cr) bool() bool { return c.u64() != 0 }

// intv reads a signed value that must fit the platform int.
func (c *cr) intv() int {
	v := c.i64()
	if int64(int(v)) != v {
		c.fail(fmt.Errorf("%w: integer %d overflows int", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

func (c *cr) f64() float64 {
	var b [8]byte
	c.bytes(b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (c *cr) str(maxLen int) string {
	n := c.length(maxLen)
	if c.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	c.bytes(b)
	return string(b)
}

// length reads and bounds a slice length.
func (c *cr) length(maxLen int) int {
	n := c.u64()
	if n > uint64(maxLen) {
		c.fail(fmt.Errorf("%w: length %d exceeds bound %d", ErrCorrupt, n, maxLen))
		return 0
	}
	return int(n)
}

func (c *cr) ints() []int {
	n := c.length(maxSliceLen)
	if c.err != nil {
		return nil
	}
	out := make([]int, 0, min(n, preallocCap))
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.intv())
	}
	if c.err != nil {
		return nil
	}
	return out
}

func (c *cr) floats() []float64 {
	n := c.length(maxSliceLen)
	if c.err != nil {
		return nil
	}
	out := make([]float64, 0, min(n, preallocCap))
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.f64())
	}
	if c.err != nil {
		return nil
	}
	return out
}

// verify reads the CRC trailer and compares it with the running sum.
func (c *cr) verify() error {
	if c.err != nil {
		return c.err
	}
	want := c.crc.Sum32()
	var b [4]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return fmt.Errorf("%w: missing checksum trailer: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(b[:]); got != want {
		return fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}
	return nil
}

// header writes the shared frame prologue.
func (c *cw) header(magic string, version byte) {
	c.bytes([]byte(magic))
	c.bytes([]byte{version})
}

// expectHeader validates the frame prologue and returns its version. A
// magic is read at the versions oldest through newest; any other is
// refused, so a binary fails loudly on files it cannot read instead of
// mis-parsing them.
func (c *cr) expectHeader(magic string, oldest, newest byte) (byte, error) {
	got := make([]byte, len(magic))
	c.bytes(got)
	if c.err != nil {
		return 0, c.err
	}
	if string(got) != magic {
		return 0, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, got, magic)
	}
	var v [1]byte
	c.bytes(v[:])
	if c.err != nil {
		return 0, c.err
	}
	if v[0] < oldest || v[0] > newest {
		reads := fmt.Sprint(newest)
		if oldest != newest {
			reads = fmt.Sprintf("%d to %d", oldest, newest)
		}
		return 0, fmt.Errorf("store: %w %s format version %d (this binary reads %s)", errUnsupportedVersion, magic, v[0], reads)
	}
	return v[0], nil
}
