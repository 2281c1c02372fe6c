// Package checkpoint persists interrupted long-running jobs — the exact
// Hosking generation and the Fig. 14 capacity-search grids — to a
// versioned binary format, so a cancelled vbrgen/vbrsim run resumes
// where it stopped instead of restarting. Files are written atomically
// (temp file + rename) so an interrupt during the flush never leaves a
// half-written checkpoint behind.
//
// Format: an 8-byte magic "VBRCKPT\x00", a little-endian uint16 format
// version, a uint16 record kind, then the kind-specific payload.
// Integers are uvarint-coded, floats are IEEE-754 bit patterns, strings
// and slices are length-prefixed. A generation record holds n, H, the
// position K, the K points drawn so far and the random-source state;
// the generator rebuilds the rest of its state from the points.
//
// Files come from outside the program, so loading trusts nothing: a
// length field only bounds how much is read, never how much is
// allocated ahead of the data, and a generation record is validated as
// a resume point before it is returned.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"vbr/internal/errs"
	"vbr/internal/fgn"
)

// Version is the current checkpoint format version. Loaders reject any
// other version with errs.ErrCheckpointVersion. Version 1 files held
// the Levinson–Durbin recursion state of the O(n²) Hosking generator;
// version 2 holds only the drawn points. The version is per file, not
// per kind, so version-1 capacity-search files are refused as well.
const Version = 2

var magic = [8]byte{'V', 'B', 'R', 'C', 'K', 'P', 'T', 0}

// Kind tags the payload type of a checkpoint file.
type Kind uint16

const (
	// KindHosking is an interrupted Hosking fARIMA generation.
	KindHosking Kind = 1
	// KindSearch is a partially completed capacity-search grid.
	KindSearch Kind = 2
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindHosking:
		return "hosking-generation"
	case KindSearch:
		return "capacity-search"
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// maxCount bounds every length field read from disk, so a corrupt or
// hostile file cannot trigger a giant allocation.
const maxCount = 1 << 28

// HoskingRecord is a checkpointed generation job: the generator snapshot
// plus the job metadata (seed, model parameters, output options) the CLI
// uses to verify that a resume matches the original invocation.
type HoskingRecord struct {
	Meta  map[string]string
	State *fgn.HoskingState
}

// CurveProgress is the resume state of one capacity-search curve,
// identified by a caller-chosen key (e.g. "N=5/Pl=1e-4"). X/Y hold the
// points computed so far (for Q–C curves: T_max seconds and aggregate
// bits/s).
type CurveProgress struct {
	Key  string
	Done bool
	X, Y []float64
}

// SearchState is the resume state of a capacity-search grid.
type SearchState struct {
	Curves []CurveProgress
}

// Find returns the progress entry for key, or nil.
func (s *SearchState) Find(key string) *CurveProgress {
	for i := range s.Curves {
		if s.Curves[i].Key == key {
			return &s.Curves[i]
		}
	}
	return nil
}

// Set records progress for key, replacing any existing entry.
func (s *SearchState) Set(key string, done bool, x, y []float64) {
	cp := CurveProgress{
		Key: key, Done: done,
		X: append([]float64(nil), x...),
		Y: append([]float64(nil), y...),
	}
	if e := s.Find(key); e != nil {
		*e = cp
		return
	}
	s.Curves = append(s.Curves, cp)
}

// SearchRecord is a checkpointed capacity-search job.
type SearchRecord struct {
	Meta  map[string]string
	State *SearchState
}

// SaveHosking atomically writes a generation checkpoint to path.
func SaveHosking(path string, rec *HoskingRecord) error {
	if rec == nil || rec.State == nil {
		return fmt.Errorf("checkpoint: nil hosking record")
	}
	return atomicWrite(path, func(w *bufio.Writer) error {
		writeHeader(w, KindHosking)
		writeMeta(w, rec.Meta)
		st := rec.State
		writeUvarint(w, uint64(st.N))
		writeFloat(w, st.H)
		writeUvarint(w, uint64(st.K))
		writeFloats(w, st.X)
		writeBytes(w, st.RNG)
		return nil
	})
}

// LoadHosking reads a generation checkpoint from path. The record is
// returned only if its state is one a generation could have stopped
// in (fgn.HoskingState.Validate) with the state of a math/rand/v2 PCG,
// the source every checkpointed generation draws from; anything else
// is an error matching errs.ErrCheckpointCorrupt.
func LoadHosking(path string) (*HoskingRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readHosking(bufio.NewReader(f), path)
}

// readHosking decodes and validates a generation record; path names
// the source in errors.
func readHosking(r *bufio.Reader, path string) (*HoskingRecord, error) {
	if err := readHeader(r, KindHosking); err != nil {
		return nil, err
	}
	rec := &HoskingRecord{State: &fgn.HoskingState{}}
	st := rec.State
	var err error
	if rec.Meta, err = readMeta(r); err != nil {
		return nil, corrupt(path, err)
	}
	var n, k uint64
	if n, err = readUvarint(r); err == nil {
		if n > maxCount {
			return nil, corrupt(path, fmt.Errorf("implausible n=%d", n))
		}
		st.N = int(n)
		st.H, err = readFloat(r)
	}
	if err == nil {
		if k, err = readUvarint(r); err == nil && k > maxCount {
			err = fmt.Errorf("implausible K=%d", k)
		}
		st.K = int(k)
	}
	if err == nil {
		st.X, err = readFloats(r)
	}
	if err == nil {
		st.RNG, err = readBytes(r)
	}
	if err != nil {
		return nil, corrupt(path, err)
	}
	// A throwaway source: it is never drawn from, only checked to accept
	// the saved bytes.
	if err := st.Validate(new(rand.PCG)); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return rec, nil
}

// SaveSearch atomically writes a capacity-search checkpoint to path.
func SaveSearch(path string, rec *SearchRecord) error {
	if rec == nil || rec.State == nil {
		return fmt.Errorf("checkpoint: nil search record")
	}
	return atomicWrite(path, func(w *bufio.Writer) error {
		writeHeader(w, KindSearch)
		writeMeta(w, rec.Meta)
		writeUvarint(w, uint64(len(rec.State.Curves)))
		for _, c := range rec.State.Curves {
			writeString(w, c.Key)
			done := byte(0)
			if c.Done {
				done = 1
			}
			w.WriteByte(done)
			writeFloats(w, c.X)
			writeFloats(w, c.Y)
		}
		return nil
	})
}

// LoadSearch reads a capacity-search checkpoint from path.
func LoadSearch(path string) (*SearchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r, KindSearch); err != nil {
		return nil, err
	}
	rec := &SearchRecord{State: &SearchState{}}
	if rec.Meta, err = readMeta(r); err != nil {
		return nil, corrupt(path, err)
	}
	n, err := readUvarint(r)
	if err != nil || n > maxCount {
		return nil, corrupt(path, err)
	}
	for i := uint64(0); i < n; i++ {
		var c CurveProgress
		if c.Key, err = readString(r); err != nil {
			return nil, corrupt(path, err)
		}
		b, err := r.ReadByte()
		if err != nil {
			return nil, corrupt(path, err)
		}
		c.Done = b != 0
		if c.X, err = readFloats(r); err != nil {
			return nil, corrupt(path, err)
		}
		if c.Y, err = readFloats(r); err != nil {
			return nil, corrupt(path, err)
		}
		if len(c.X) != len(c.Y) {
			return nil, corrupt(path, fmt.Errorf("curve %q: %d X vs %d Y points", c.Key, len(c.X), len(c.Y)))
		}
		rec.State.Curves = append(rec.State.Curves, c)
	}
	return rec, nil
}

// ------------------------------------------------------------------
// encoding helpers

// atomicWrite makes a checkpoint save crash-safe in two steps: the
// bytes are written to a temp file in the target directory and fsynced
// before an atomic rename installs them, and the directory entry is
// fsynced afterwards so the rename itself survives a power cut. A crash
// at any point leaves either the old complete file or the new complete
// file — never a torn one.
func atomicWrite(path string, fill func(*bufio.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := fill(w); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: syncing directory %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
// Platforms whose directory handles reject Sync (it is optional in
// POSIX) degrade to the rename-only guarantee instead of failing the
// save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

func writeHeader(w *bufio.Writer, kind Kind) {
	w.Write(magic[:])
	binary.Write(w, binary.LittleEndian, uint16(Version))
	binary.Write(w, binary.LittleEndian, uint16(kind))
}

func readHeader(r *bufio.Reader, want Kind) error {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("checkpoint: reading magic: %w: %w", errs.ErrCheckpointCorrupt, err)
	}
	if m != magic {
		return fmt.Errorf("checkpoint: bad magic %q: %w", m[:], errs.ErrCheckpointCorrupt)
	}
	var ver, kind uint16
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return fmt.Errorf("checkpoint: reading version: %w: %w", errs.ErrCheckpointCorrupt, err)
	}
	if ver != Version {
		why := ""
		if ver == 1 {
			why = " (version 1 held the Levinson recursion state of the O(n²) Hosking generator, " +
				"which the closed-form generator cannot resume; capacity-search files of version 1 " +
				"are refused too: rerun the job without -resume)"
		}
		return fmt.Errorf("checkpoint: file is version %d, this build reads %d%s: %w",
			ver, Version, why, errs.ErrCheckpointVersion)
	}
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return fmt.Errorf("checkpoint: reading kind: %w: %w", errs.ErrCheckpointCorrupt, err)
	}
	if Kind(kind) != want {
		return fmt.Errorf("checkpoint: file holds a %v record, want %v: %w",
			Kind(kind), want, errs.ErrCheckpointMismatch)
	}
	return nil
}

func writeMeta(w *bufio.Writer, meta map[string]string) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeUvarint(w, uint64(len(keys)))
	for _, k := range keys {
		writeString(w, k)
		writeString(w, meta[k])
	}
}

func readMeta(r *bufio.Reader) (map[string]string, error) {
	n, err := readUvarint(r)
	if err != nil || n > maxCount {
		return nil, fmt.Errorf("checkpoint: meta count: %w", errOr(err))
	}
	meta := make(map[string]string, min(n, 64))
	for i := uint64(0); i < n; i++ {
		k, err := readString(r)
		if err != nil {
			return nil, err
		}
		v, err := readString(r)
		if err != nil {
			return nil, err
		}
		meta[k] = v
	}
	return meta, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeFloat(w *bufio.Writer, f float64) {
	binary.Write(w, binary.LittleEndian, math.Float64bits(f))
}

func readFloat(r *bufio.Reader) (float64, error) {
	var bits uint64
	if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

func writeFloats(w *bufio.Writer, xs []float64) {
	writeUvarint(w, uint64(len(xs)))
	for _, x := range xs {
		writeFloat(w, x)
	}
}

func readFloats(r *bufio.Reader) ([]float64, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxCount {
		return nil, fmt.Errorf("implausible float count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	// Grown as values arrive, so a count the data does not back
	// allocates nothing beyond the data.
	xs := make([]float64, 0, min(n, 1<<12))
	for range n {
		x, err := readFloat(r)
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
	}
	return xs, nil
}

func writeBytes(w *bufio.Writer, b []byte) {
	writeUvarint(w, uint64(len(b)))
	w.Write(b)
}

func readBytes(r *bufio.Reader) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxCount {
		return nil, fmt.Errorf("implausible byte count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	b, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	b, err := readBytes(r)
	return string(b), err
}

// corrupt wraps a decoding failure with the corruption sentinel.
func corrupt(path string, err error) error {
	return fmt.Errorf("checkpoint: %s: %w: %w", path, errs.ErrCheckpointCorrupt, errOr(err))
}

// errOr returns err or a generic truncation error when err is nil.
func errOr(err error) error {
	if err == nil {
		return io.ErrUnexpectedEOF
	}
	return err
}
