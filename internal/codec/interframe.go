package codec

import (
	"context"
	"fmt"

	"vbr/internal/errs"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

// This file implements the interframe-coding extension the paper
// distinguishes in §2: "Greater compression, burstiness and much stronger
// dependence on motion result from interframe coding, i.e., coding frame
// differences or use of motion prediction/compensation. Our main results
// do seem to extend to interframe (MPEG) video as well [GARR93a]" (see
// also [PANC94]).
//
// The coder uses an MPEG-like group-of-pictures (GOP) structure: every
// GOPSize-th frame is coded intra (exactly as the §2 coder), the frames
// between are coded predictively as the DCT of the motion-compensated
// difference from the reconstructed previous frame. Motion compensation
// is full-search block matching over ±SearchRange pels, which suffices
// for the renderer's translational phase drift.

// InterCoderConfig parameterizes the interframe coder.
type InterCoderConfig struct {
	CoderConfig
	GOPSize     int // frames per GOP (one I frame, the rest P/B frames)
	SearchRange int // motion search radius in pels (0 = pure differencing)
	// BFrames inserts this many bidirectionally-predicted frames between
	// consecutive reference (I/P) frames, completing the MPEG I-B-B-P-…
	// GOP structure. Each B block is predicted from the better of the two
	// surrounding references or their average. 0 disables B frames.
	// GOPSize must be divisible by BFrames+1 so references land on a
	// regular grid.
	BFrames int
}

// DefaultInterCoderConfig returns an MPEG-1-like configuration on the
// paper's frame geometry (GOP 12, two B frames between references).
func DefaultInterCoderConfig() InterCoderConfig {
	return InterCoderConfig{
		CoderConfig: DefaultCoderConfig(),
		GOPSize:     12,
		SearchRange: 4,
		BFrames:     2,
	}
}

// validate extends the intraframe checks.
func (c InterCoderConfig) validate() error {
	if err := c.CoderConfig.validate(); err != nil {
		return err
	}
	if c.GOPSize < 1 {
		return fmt.Errorf("codec: GOP size must be ≥ 1, got %d", c.GOPSize)
	}
	if c.SearchRange < 0 {
		return fmt.Errorf("codec: search range must be ≥ 0, got %d", c.SearchRange)
	}
	if c.BFrames < 0 {
		return fmt.Errorf("codec: B-frame count must be ≥ 0, got %d", c.BFrames)
	}
	if c.BFrames > 0 && c.GOPSize%(c.BFrames+1) != 0 {
		return fmt.Errorf("codec: GOP size %d not divisible by BFrames+1 = %d", c.GOPSize, c.BFrames+1)
	}
	return nil
}

// InterCoder is the interframe DCT/RLE/Huffman coder with
// motion-compensated prediction.
type InterCoder struct {
	cfg   InterCoderConfig
	intra *Coder    // reused intraframe machinery (shares the Huffman table)
	ref   []float64 // reconstructed previous frame (prediction reference)
}

// NewInterCoder constructs the coder. Train (on the embedded intraframe
// coder's symbol statistics plus difference-frame statistics) is handled
// by TrainOn.
func NewInterCoder(cfg InterCoderConfig) (*InterCoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	intra, err := NewCoder(cfg.CoderConfig)
	if err != nil {
		return nil, err
	}
	return &InterCoder{
		cfg:   cfg,
		intra: intra,
		ref:   make([]float64, cfg.Width*cfg.Height),
	}, nil
}

// Config returns the coder configuration.
func (c *InterCoder) Config() InterCoderConfig { return c.cfg }

// TrainOn fits the Huffman table to a mixed sample of intra frames and
// difference frames from the given sequence.
func (c *InterCoder) TrainOn(frames []*Frame) error {
	if len(frames) == 0 {
		return fmt.Errorf("codec: no training frames")
	}
	freq := make([]uint64, numSyms)
	var prev *Frame
	for i, f := range frames {
		if i%c.cfg.GOPSize == 0 || prev == nil {
			if err := c.intra.accumulate(f, freq); err != nil {
				return err
			}
		} else {
			if err := c.accumulateDiff(prev, f, freq); err != nil {
				return err
			}
		}
		prev = f
	}
	huff, err := NewHuffmanTable(freq)
	if err != nil {
		return err
	}
	c.intra.huff = huff
	return nil
}

// accumulateDiff adds the symbol statistics of a (motion-compensated)
// difference frame.
func (c *InterCoder) accumulateDiff(prev, cur *Frame, freq []uint64) error {
	return c.forEachDiffBlock(framePix(prev), cur, func(symbols []RunLevel) error {
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

// framePix converts a frame's pixels to float64 for use as a reference.
func framePix(f *Frame) []float64 {
	out := make([]float64, len(f.Pix))
	for i, v := range f.Pix {
		out[i] = float64(v)
	}
	return out
}

// Reset clears the prediction reference (e.g. between independent
// sequences).
func (c *InterCoder) Reset() {
	for i := range c.ref {
		c.ref[i] = 0
	}
}

// CodeFrame codes one frame in sequence order, returning per-slice bit
// counts and whether the frame was coded intra. Frame index i is intra
// iff i ≡ 0 (mod GOPSize); the caller passes consecutive frames.
func (c *InterCoder) CodeFrame(f *Frame, index int) (bits []int, intraCoded bool, err error) {
	if f.W != c.cfg.Width || f.H != c.cfg.Height {
		return nil, false, fmt.Errorf("codec: frame is %d×%d, coder expects %d×%d", f.W, f.H, c.cfg.Width, c.cfg.Height)
	}
	blockRows := c.cfg.Height / BlockSize
	rowsPerSlice := blockRows / c.cfg.SlicesPerFrame
	blocksPerRow := c.cfg.Width / BlockSize
	blocksPerSlice := rowsPerSlice * blocksPerRow
	bits = make([]int, c.cfg.SlicesPerFrame)
	blockIdx := 0

	count := func(symbols []RunLevel) error {
		n, err := c.intra.huff.CountBits(symbols)
		if err != nil {
			return err
		}
		bits[blockIdx/blocksPerSlice] += n
		blockIdx++
		return nil
	}

	if index%c.cfg.GOPSize == 0 {
		// Intra frame: code the pixels, update the reference with the
		// quantized reconstruction.
		err = c.intra.forEachBlock(f, count)
		if err != nil {
			return nil, false, err
		}
		// Reference = dequantized reconstruction; for bit accounting we
		// approximate it with the source frame (quantization noise is a
		// second-order effect on the next frame's difference energy).
		for i, v := range f.Pix {
			c.ref[i] = float64(v)
		}
		return bits, true, nil
	}

	// P frame: motion-compensated difference against the reference, plus
	// motion-vector side information (a fixed cost per block, as in MPEG
	// variable-length MV coding ≈ log2(2R+1)² bits).
	mvBits := 2 * intLog2(2*c.searchRange()+1)
	err = c.forEachDiffBlock(c.ref, f, func(symbols []RunLevel) error {
		if err := count(symbols); err != nil {
			return err
		}
		bits[(blockIdx-1)/blocksPerSlice] += mvBits
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	for i, v := range f.Pix {
		c.ref[i] = float64(v)
	}
	return bits, false, nil
}

// intLog2 returns ⌈log2 n⌉ for n ≥ 1.
func intLog2(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// forEachDiffBlock motion-compensates each block of cur against ref and
// runs the DCT→quantize→RLE pipeline on the residual.
func (c *InterCoder) forEachDiffBlock(ref []float64, cur *Frame, fn func([]RunLevel) error) error {
	w, h := c.cfg.Width, c.cfg.Height
	var block, coeffs Block
	var levels [BlockSize * BlockSize]int32
	var symbols []RunLevel
	for by := 0; by < h; by += BlockSize {
		for bx := 0; bx < w; bx += BlockSize {
			dx, dy := c.bestMotion(ref, cur, bx, by)
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					curV := float64(cur.Pix[(by+y)*w+bx+x])
					refV := ref[(by+y+dy)*w+bx+x+dx]
					block[y][x] = curV - refV
				}
			}
			ForwardDCT(&coeffs, &block)
			Quantize(&coeffs, c.cfg.QuantStep, &levels)
			symbols = RunLengthEncode(&levels, symbols[:0])
			if err := fn(symbols); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchRange returns the motion search radius actually used: the
// configured per-frame-of-distance radius scaled by the reference
// spacing (BFrames+1), since a reference sits that many frames away and
// camera pan accumulates linearly.
func (c *InterCoder) searchRange() int {
	return c.cfg.SearchRange * (c.cfg.BFrames + 1)
}

// bestMotion runs a full search over ±searchRange() for the displacement
// minimizing the sum of absolute differences.
func (c *InterCoder) bestMotion(ref []float64, cur *Frame, bx, by int) (dx, dy int) {
	r := c.searchRange()
	if r == 0 {
		return 0, 0
	}
	w, h := c.cfg.Width, c.cfg.Height
	best := float64(1 << 62)
	for cy := -r; cy <= r; cy++ {
		if by+cy < 0 || by+cy+BlockSize > h {
			continue
		}
		for cx := -r; cx <= r; cx++ {
			if bx+cx < 0 || bx+cx+BlockSize > w {
				continue
			}
			var sad float64
			for y := 0; y < BlockSize; y++ {
				rowC := (by+y)*w + bx
				rowR := (by+y+cy)*w + bx + cx
				for x := 0; x < BlockSize; x++ {
					d := float64(cur.Pix[rowC+x]) - ref[rowR+x]
					if d < 0 {
						d = -d
					}
					sad += d
				}
			}
			if sad < best {
				best, dx, dy = sad, cx, cy
			}
		}
	}
	return dx, dy
}

// GenerateTrace runs the full interframe pipeline over the synthetic
// movie, as Coder.GenerateTrace does for intraframe coding. The returned
// trace exhibits the MPEG signatures the paper describes: GOP-periodic
// rate oscillation, higher burstiness, and stronger motion dependence.
// Cancellation is checked once per coded frame.
func (c *InterCoder) GenerateTrace(ctx context.Context, cfg synth.Config, trainFrames int) (*trace.Trace, error) {
	if trainFrames < 1 {
		return nil, fmt.Errorf("codec: need ≥ 1 training frame, got %d", trainFrames)
	}
	z, scenes, err := synth.ActivityProcess(ctx, cfg)
	if err != nil {
		return nil, err
	}
	act, sceneOf := sceneActivity(z, scenes)
	render := func(dst *Frame, t int) error {
		sc := scenes[sceneOf[t]]
		return RenderFrame(dst, RenderParams{
			Activity:     act[t],
			SceneID:      uint64(sceneOf[t])*2654435761 + cfg.Seed,
			FrameInScene: t - sc.Start,
		})
	}

	// Training: consecutive runs so difference statistics are realistic.
	var training []*Frame
	runs := max(1, trainFrames/8)
	perRun := max(2, trainFrames/runs)
	for r := 0; r < runs; r++ {
		start := r * len(z) / runs
		for k := 0; k < perRun && start+k < len(z); k++ {
			tf, err := NewFrame(c.cfg.Width, c.cfg.Height)
			if err != nil {
				return nil, err
			}
			if err := render(tf, start+k); err != nil {
				return nil, err
			}
			training = append(training, tf)
		}
	}
	if err := c.TrainOn(training); err != nil {
		return nil, err
	}
	c.Reset()

	tr := &trace.Trace{
		FrameRate:      cfg.FrameRate,
		SlicesPerFrame: c.cfg.SlicesPerFrame,
		Frames:         make([]float64, len(z)),
		Slices:         make([]float64, len(z)*c.cfg.SlicesPerFrame),
	}
	c.Reset()
	sc := &seqCoder{c: c, emit: func(t int, sliceBits []int, _ FrameType) error {
		var total float64
		for s, b := range sliceBits {
			bytes := float64(b) / 8
			tr.Slices[t*c.cfg.SlicesPerFrame+s] = bytes
			total += bytes
		}
		tr.Frames[t] = total
		return nil
	}}
	for t := range z {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		// Each frame is handed to the sequence coder, which may retain
		// B frames until their mini-GOP completes; allocate per frame
		// (at most BFrames+1 are alive at once).
		frame, err := NewFrame(c.cfg.Width, c.cfg.Height)
		if err != nil {
			return nil, err
		}
		if err := render(frame, t); err != nil {
			return nil, err
		}
		if err := sc.push(frame, t); err != nil {
			return nil, err
		}
	}
	if err := sc.flush(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
