package store

import (
	"fmt"
	"io"

	"repro/internal/lu"
	"repro/internal/sparse"
)

// Solver and sparse-container codecs. The unexported helpers encode
// the static factor container and the sparse building blocks (patterns,
// matrices, permutations) into an already-open frame and are shared by
// the solver (CLUS) and stream-state (CLUD) codecs.

const (
	solverMagic = "CLUS"

	// codecVersion is the CLUS frame's format version, and the layout
	// of the containers both frames embed: index arrays delta-coded
	// (cw.intsDelta), permutations plain. Version 1 (every array plain)
	// is refused. The CLUD frame numbers its own versions
	// (stateVersion).
	codecVersion = 2

	// kindStatic is the factor-kind tag in front of every container:
	// the static container is the only kind, and any other tag is
	// ErrCorrupt.
	kindStatic = 0
)

// writeFactorsBody encodes the container into an open frame. Only
// primary structure is written, and lu.AssembleStatic rebuilds the
// container from exactly those arrays, which is what makes the round
// trip bit-identical by construction rather than by trusting the
// input; the cross views are built on demand by whoever writes the
// container later. A container of any other type is an error.
func writeFactorsBody(c *cw, f lu.Factors) {
	t, ok := f.(*lu.StaticFactors)
	if !ok {
		if c.err == nil {
			c.err = fmt.Errorf("store: unsupported factor container %T", f)
		}
		return
	}
	c.u64(kindStatic)
	c.i64(int64(t.Dim()))
	c.intsDelta(t.LColPtr)
	c.intsDelta(t.LRowIdx)
	c.floats(t.LVal)
	c.intsDelta(t.URowPtr)
	c.intsDelta(t.UColIdx)
	c.floats(t.UVal)
	c.floats(t.D)
}

// readFactorsBody decodes one static container from an open frame.
func readFactorsBody(c *cr) *lu.StaticFactors {
	if kind := c.u64(); kind != kindStatic {
		c.fail(fmt.Errorf("%w: unknown factor kind %d", ErrCorrupt, kind))
		return nil
	}
	n := c.intv()
	lColPtr := c.intsDelta()
	lRowIdx := c.intsDelta()
	lVal := c.floats()
	uRowPtr := c.intsDelta()
	uColIdx := c.intsDelta()
	uVal := c.floats()
	d := c.floats()
	if c.err != nil {
		return nil
	}
	f, err := lu.AssembleStatic(n, lColPtr, lRowIdx, lVal, uRowPtr, uColIdx, uVal, d)
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return nil
	}
	return f
}

// writePerm / readPerm encode a permutation (validated as a bijection
// on read).
func writePerm(c *cw, p sparse.Perm) { c.ints([]int(p)) }

func readPerm(c *cr) sparse.Perm {
	p := sparse.Perm(c.ints())
	if c.err == nil && !p.Valid() {
		c.fail(fmt.Errorf("%w: permutation is not a bijection", ErrCorrupt))
		return nil
	}
	return p
}

// writeOrdering / readOrdering encode O = (P, Q).
func writeOrdering(c *cw, o sparse.Ordering) {
	writePerm(c, o.Row)
	writePerm(c, o.Col)
}

func readOrdering(c *cr) sparse.Ordering {
	row := readPerm(c)
	col := readPerm(c)
	if c.err == nil && len(row) != len(col) {
		c.fail(fmt.Errorf("%w: ordering permutation sizes differ (%d vs %d)", ErrCorrupt, len(row), len(col)))
	}
	return sparse.Ordering{Row: row, Col: col}
}

// writePattern / readPattern encode a sparsity pattern; nil is legal
// (absence flag).
func writePattern(c *cw, p *sparse.Pattern) {
	if p == nil {
		c.bool(false)
		return
	}
	c.bool(true)
	rowPtr, colIdx := p.PatternArrays()
	c.i64(int64(p.N()))
	c.intsDelta(rowPtr)
	c.intsDelta(colIdx)
}

func readPattern(c *cr) *sparse.Pattern {
	if !c.bool() || c.err != nil {
		return nil
	}
	n := c.intv()
	rowPtr := c.intsDelta()
	colIdx := c.intsDelta()
	if c.err != nil {
		return nil
	}
	p, err := sparse.PatternFromArrays(n, rowPtr, colIdx)
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return nil
	}
	return p
}

// readCSR decodes a sparse matrix (nil is legal): the permuted matrix
// of a version 2 or 3 CLUD frame, whose writer is oldstate_test.go's.
func readCSR(c *cr) *sparse.CSR {
	if !c.bool() || c.err != nil {
		return nil
	}
	n := c.intv()
	rowPtr := c.intsDelta()
	colIdx := c.intsDelta()
	vals := c.floats()
	if c.err != nil {
		return nil
	}
	m, err := sparse.CSRFromArrays(n, rowPtr, colIdx, vals)
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return nil
	}
	return m
}

// WriteSolver serializes a solver (ordering + factors) as one frame —
// the unit the serving layer spills evicted snapshots as.
func WriteSolver(w io.Writer, s *lu.Solver) error {
	c := newCW(w)
	c.header(solverMagic, codecVersion)
	writeOrdering(c, s.O)
	writeFactorsBody(c, s.F)
	if c.err != nil {
		return c.err
	}
	return c.seal()
}

// ReadSolver parses a WriteSolver frame.
func ReadSolver(r io.Reader) (*lu.Solver, error) {
	c := newCR(r)
	if _, err := c.expectHeader(solverMagic, codecVersion, codecVersion); err != nil {
		return nil, err
	}
	o := readOrdering(c)
	f := readFactorsBody(c)
	if c.err != nil {
		return nil, c.err
	}
	if err := c.verify(); err != nil {
		return nil, err
	}
	if o.N() != f.Dim() {
		return nil, fmt.Errorf("%w: ordering dimension %d does not match factors %d", ErrCorrupt, o.N(), f.Dim())
	}
	return &lu.Solver{F: f, O: o}, nil
}
