package source

import (
	"context"
	"fmt"
	"io"

	"vbr/internal/errs"
	"vbr/internal/stream"
)

// BlockAdapter drives a Source through the serving layer's
// stream.BlockSource contract: fixed-size reused blocks, io.EOF after
// n frames, and an embedded stream.Monitor so vbrd's response trailers
// carry the same online Ĥ/moment probes for zoo models as for the
// native fARIMA stream.
type BlockAdapter struct {
	src Source
	n   int
	buf []float64
	mon *stream.Monitor
	pos int
}

// Blocks adapts src to a BlockSource producing n frames in blocks of
// block frames, clamped to n as stream.Config clamps its BlockSize.
// The adapter owns the read position; callers should Reset the source
// before (not during) adaptation.
func Blocks(src Source, n, block int) (*BlockAdapter, error) {
	if n < 1 {
		return nil, fmt.Errorf("source: block adapter needs n ≥ 1, got %d", n)
	}
	if block < 1 {
		return nil, fmt.Errorf("source: block adapter needs block ≥ 1, got %d", block)
	}
	block = min(block, n)
	return &BlockAdapter{
		src: src,
		n:   n,
		buf: make([]float64, block),
		mon: stream.NewMonitor(n),
	}, nil
}

// Len returns the total number of frames the adapter will produce.
func (a *BlockAdapter) Len() int { return a.n }

// Pos implements stream.BlockSource.
func (a *BlockAdapter) Pos() int { return a.pos }

// Probe returns the online-validation snapshot of the frames served so
// far, in the same shape the native stream exposes.
func (a *BlockAdapter) Probe() stream.Probe { return a.mon.Probe() }

// Next implements stream.BlockSource: one block of frames from the
// underlying Source, folded into the monitor. Cancellation is checked
// once per block (frame-level Next of most zoo members is pure
// arithmetic).
//
//vbrlint:hotpath
func (a *BlockAdapter) Next(ctx context.Context) ([]float64, error) {
	if a.pos >= a.n {
		return nil, io.EOF
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	want := len(a.buf)
	if rest := a.n - a.pos; rest < want {
		want = rest
	}
	out := a.buf[:want]
	for i := range out {
		v, err := a.src.Next(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	a.mon.Add(out...)
	a.pos += want
	return out, nil
}

var _ stream.BlockSource = (*BlockAdapter)(nil)
