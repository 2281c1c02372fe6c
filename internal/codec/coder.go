package codec

import (
	"context"
	"fmt"
	"math"

	"vbr/internal/errs"
	"vbr/internal/specfn"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

// CoderConfig parameterizes the intraframe coder.
type CoderConfig struct {
	Width, Height  int     // frame dimensions (paper: 504×480)
	SlicesPerFrame int     // paper: 30
	QuantStep      float64 // uniform quantizer step (paper fixes it)
}

// DefaultCoderConfig returns the paper's coder parameters (Table 1).
func DefaultCoderConfig() CoderConfig {
	return CoderConfig{Width: 504, Height: 480, SlicesPerFrame: 30, QuantStep: 8}
}

// validate checks config consistency: the frame must divide evenly into
// block rows and the block rows evenly into slices.
func (c CoderConfig) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("codec: dimensions must be positive, got %d×%d", c.Width, c.Height)
	}
	if c.Width%BlockSize != 0 || c.Height%BlockSize != 0 {
		return fmt.Errorf("codec: dimensions must be multiples of %d, got %d×%d", BlockSize, c.Width, c.Height)
	}
	blockRows := c.Height / BlockSize
	if c.SlicesPerFrame < 1 || blockRows%c.SlicesPerFrame != 0 {
		return fmt.Errorf("codec: %d block rows not divisible into %d slices", blockRows, c.SlicesPerFrame)
	}
	if !(c.QuantStep > 0) {
		return fmt.Errorf("codec: quantizer step must be positive, got %v", c.QuantStep)
	}
	return nil
}

// Coder is the intraframe DCT/RLE/Huffman coder.
type Coder struct {
	cfg  CoderConfig
	huff *HuffmanTable
	// scratch buffers reused across blocks
	block   Block
	coeffs  Block
	levels  [BlockSize * BlockSize]int32
	symbols []RunLevel
}

// NewCoder constructs a coder with an untrained (uniform) Huffman table;
// call Train to fit the table to representative material, as a static
// JPEG-style table would be.
func NewCoder(cfg CoderConfig) (*Coder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	freq := make([]uint64, numSyms)
	huff, err := NewHuffmanTable(freq)
	if err != nil {
		return nil, err
	}
	return &Coder{cfg: cfg, huff: huff}, nil
}

// Config returns the coder's configuration.
func (c *Coder) Config() CoderConfig { return c.cfg }

// Train fits the Huffman table to the symbol statistics of the given
// frames.
func (c *Coder) Train(frames []*Frame) error {
	freq := make([]uint64, numSyms)
	for _, f := range frames {
		if err := c.accumulate(f, freq); err != nil {
			return err
		}
	}
	huff, err := NewHuffmanTable(freq)
	if err != nil {
		return err
	}
	c.huff = huff
	return nil
}

// accumulate adds the frame's run-level symbol frequencies into freq.
func (c *Coder) accumulate(f *Frame, freq []uint64) error {
	return c.forEachBlock(f, func(symbols []RunLevel) error {
		for _, rl := range symbols {
			zrls, sym, _, err := symbolOf(rl)
			if err != nil {
				return err
			}
			freq[symZRL] += uint64(zrls)
			freq[sym]++
		}
		return nil
	})
}

// forEachBlock runs the DCT→quantize→RLE pipeline over every 8×8 block of
// the frame in slice-major order and passes the symbols to fn.
//
//vbrlint:hotpath
func (c *Coder) forEachBlock(f *Frame, fn func([]RunLevel) error) error {
	if f.W != c.cfg.Width || f.H != c.cfg.Height {
		return fmt.Errorf("codec: frame is %d×%d, coder expects %d×%d", f.W, f.H, c.cfg.Width, c.cfg.Height)
	}
	for by := 0; by < f.H; by += BlockSize {
		for bx := 0; bx < f.W; bx += BlockSize {
			for y := 0; y < BlockSize; y++ {
				row := (by+y)*f.W + bx
				for x := 0; x < BlockSize; x++ {
					// Level-shift to center on zero, as JPEG does.
					c.block[y][x] = float64(f.Pix[row+x]) - 128
				}
			}
			ForwardDCT(&c.coeffs, &c.block)
			Quantize(&c.coeffs, c.cfg.QuantStep, &c.levels)
			c.symbols = RunLengthEncode(&c.levels, c.symbols[:0])
			if err := fn(c.symbols); err != nil {
				return err
			}
		}
	}
	return nil
}

// CodeFrame codes one frame and returns the coded size of each slice in
// bits. A slice is a horizontal band of block rows (Height/8/SlicesPerFrame
// rows of blocks), scanned left to right.
//
//vbrlint:hotpath
func (c *Coder) CodeFrame(f *Frame) ([]int, error) {
	blockRows := c.cfg.Height / BlockSize
	rowsPerSlice := blockRows / c.cfg.SlicesPerFrame
	blocksPerRow := c.cfg.Width / BlockSize
	blocksPerSlice := rowsPerSlice * blocksPerRow

	bits := make([]int, c.cfg.SlicesPerFrame)
	blockIdx := 0
	err := c.forEachBlock(f, func(symbols []RunLevel) error {
		n, err := c.huff.CountBits(symbols)
		if err != nil {
			return err
		}
		bits[blockIdx/blocksPerSlice] += n
		blockIdx++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bits, nil
}

// EncodeFrame produces the actual bitstream for a frame (used by the
// round-trip tests; trace generation uses the faster CodeFrame).
func (c *Coder) EncodeFrame(f *Frame) ([]byte, error) {
	w := &BitWriter{}
	err := c.forEachBlock(f, func(symbols []RunLevel) error {
		_, err := c.huff.EncodeSymbols(symbols, w)
		return err
	})
	if err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// DecodeFrame reconstructs a frame from a bitstream produced by
// EncodeFrame (lossy only through quantization).
func (c *Coder) DecodeFrame(stream []byte) (*Frame, error) {
	f, err := NewFrame(c.cfg.Width, c.cfg.Height)
	if err != nil {
		return nil, err
	}
	r := NewBitReader(stream)
	var levels [BlockSize * BlockSize]int32
	var coeffs, block Block
	for by := 0; by < f.H; by += BlockSize {
		for bx := 0; bx < f.W; bx += BlockSize {
			symbols, err := c.huff.DecodeSymbols(r)
			if err != nil {
				return nil, err
			}
			if !RunLengthDecode(symbols, &levels) {
				return nil, fmt.Errorf("codec: malformed block at (%d,%d)", bx, by)
			}
			Dequantize(&levels, c.cfg.QuantStep, &coeffs)
			InverseDCT(&block, &coeffs)
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					v := block[y][x] + 128
					switch {
					case v < 0:
						v = 0
					case v > 255:
						v = 255
					}
					f.Pix[(by+y)*f.W+bx+x] = uint8(math.Round(v))
				}
			}
		}
	}
	return f, nil
}

// GenerateTrace runs the complete paper §2 pipeline: the synthetic movie
// activity process drives the procedural frame renderer, every frame is
// actually compressed by the coder, and the per-slice bit counts become
// the VBR bandwidth trace. trainFrames frames spread across the movie are
// used to fit the Huffman table first. This is the "real coder" path; it
// is O(frames · pixels) and intended for cmd/vbrtrace and tests at
// moderate resolutions; cancellation is checked once per coded frame.
func (c *Coder) GenerateTrace(ctx context.Context, cfg synth.Config, trainFrames int) (*trace.Trace, error) {
	if trainFrames < 1 {
		return nil, fmt.Errorf("codec: need ≥ 1 training frame, got %d", trainFrames)
	}
	z, scenes, err := synth.ActivityProcess(ctx, cfg)
	if err != nil {
		return nil, err
	}
	act, sceneOf := sceneActivity(z, scenes)

	frame, err := NewFrame(c.cfg.Width, c.cfg.Height)
	if err != nil {
		return nil, err
	}

	// Training pass over frames spread uniformly across the movie.
	var training []*Frame
	for i := 0; i < trainFrames; i++ {
		t := i * len(z) / trainFrames
		tf, err := NewFrame(c.cfg.Width, c.cfg.Height)
		if err != nil {
			return nil, err
		}
		sc := scenes[sceneOf[t]]
		if err := RenderFrame(tf, RenderParams{
			Activity:     act[t],
			SceneID:      uint64(sceneOf[t])*2654435761 + cfg.Seed,
			FrameInScene: t - sc.Start,
		}); err != nil {
			return nil, err
		}
		training = append(training, tf)
	}
	if err := c.Train(training); err != nil {
		return nil, err
	}

	tr := &trace.Trace{
		FrameRate:      cfg.FrameRate,
		SlicesPerFrame: c.cfg.SlicesPerFrame,
		Frames:         make([]float64, len(z)),
		Slices:         make([]float64, len(z)*c.cfg.SlicesPerFrame),
	}
	for t := range z {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		sc := scenes[sceneOf[t]]
		if err := RenderFrame(frame, RenderParams{
			Activity:     act[t],
			SceneID:      uint64(sceneOf[t])*2654435761 + cfg.Seed,
			FrameInScene: t - sc.Start,
		}); err != nil {
			return nil, err
		}
		sliceBits, err := c.CodeFrame(frame)
		if err != nil {
			return nil, err
		}
		var total float64
		for s, b := range sliceBits {
			bytes := float64(b) / 8
			tr.Slices[t*c.cfg.SlicesPerFrame+s] = bytes
			total += bytes
		}
		tr.Frames[t] = total
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// sceneActivity maps the per-frame activity z-scores to per-frame
// complexity values in [0, 1] that are constant within each scene (the
// scene-mean z through the normal CDF). Video complexity is a property
// of the scene's content; within-scene bit variation then arises from
// camera pan and flicker in the renderer, matching §4.2's "periods with
// practically constant level". It also returns the frame→scene index.
func sceneActivity(z []float64, scenes []synth.Scene) (act []float64, sceneOf []int) {
	act = make([]float64, len(z))
	sceneOf = make([]int, len(z))
	for si, sc := range scenes {
		end := sc.Start + sc.Length
		if end > len(z) {
			end = len(z)
		}
		var mean float64
		for t := sc.Start; t < end; t++ {
			mean += z[t]
		}
		if end > sc.Start {
			mean /= float64(end - sc.Start)
		}
		a := specfn.NormCDF(mean)
		for t := sc.Start; t < end; t++ {
			act[t] = a
			sceneOf[t] = si
		}
	}
	return act, sceneOf
}

// CompressionRatio returns the ratio of raw frame size to mean coded
// frame size for a trace produced by this coder (Table 1 reports 8.70).
func (c *Coder) CompressionRatio(tr *trace.Trace) (float64, error) {
	s, err := tr.FrameStats()
	if err != nil {
		return 0, err
	}
	raw := float64(c.cfg.Width * c.cfg.Height) // 8 bits/pel = 1 byte
	if s.Mean <= 0 {
		return 0, fmt.Errorf("codec: trace has nonpositive mean")
	}
	return raw / s.Mean, nil
}
