package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vbr/internal/errs"
)

// testRecord is a search record with one finished and one partial curve.
func testRecord() *SearchRecord {
	st := &SearchState{}
	st.Set("N=5/Pl=1e-4", true, []float64{0.001, 0.002}, []float64{6e6, 5e6})
	st.Set("N=20/Pl=0", false, []float64{0.001}, []float64{9e6})
	return &SearchRecord{Meta: map[string]string{"frames": "30000", "slices": "false"}, State: st}
}

// saved is testRecord as written to a file in a fresh directory.
func saved(t *testing.T) (path string, b []byte) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "search.ckpt")
	if err := SaveSearch(path, testRecord()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

func TestSearchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	st := &SearchState{}
	st.Set("N=5/Pl=1e-4", true, []float64{0.001, 0.002}, []float64{6e6, 5e6})
	st.Set("N=20/Pl=0", false, []float64{0.001}, []float64{9e6})
	st.Set("N=5/Pl=1e-4", true, []float64{0.001, 0.002, 0.004}, []float64{6e6, 5e6, 4e6}) // replace
	rec := &SearchRecord{Meta: map[string]string{"frames": "30000"}, State: st}
	if err := SaveSearch(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSearch(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["frames"] != "30000" {
		t.Errorf("meta: %v", got.Meta)
	}
	if len(got.State.Curves) != 2 {
		t.Fatalf("got %d curves, want 2", len(got.State.Curves))
	}
	c := got.State.Find("N=5/Pl=1e-4")
	if c == nil || !c.Done || len(c.X) != 3 || c.Y[2] != 4e6 {
		t.Errorf("curve round trip: %+v", c)
	}
	if got.State.Find("N=20/Pl=0") == nil {
		t.Error("second curve missing")
	}
	if got.State.Find("nonexistent") != nil {
		t.Error("Find invented a curve")
	}
}

func TestVersionRejected(t *testing.T) {
	path, b := saved(t)
	b[8] = 99 // version low byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSearch(path)
	if !errors.Is(err, errs.ErrCheckpointVersion) {
		t.Errorf("got %v, want ErrCheckpointVersion", err)
	}
}

// TestVersion1Refused pins the refusal of the previous format: a
// version-1 file of either kind fails with ErrCheckpointVersion and a
// message that says why and what to do.
func TestVersion1Refused(t *testing.T) {
	for _, kind := range []Kind{1, KindSearch} {
		path := filepath.Join(t.TempDir(), "v1.ckpt")
		if err := os.WriteFile(path, header(1, kind), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSearch(path)
		if !errors.Is(err, errs.ErrCheckpointVersion) {
			t.Fatalf("kind %d: got %v, want ErrCheckpointVersion", kind, err)
		}
		for _, want := range []string{"version 1", "Levinson", "capacity-search", "without -resume"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("kind %d: message %q does not mention %q", kind, err, want)
			}
		}
	}
}

// header is the first 12 bytes of a file of the given version and kind.
func header(version uint16, kind Kind) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, version)
	return binary.LittleEndian.AppendUint16(b, uint16(kind))
}

// TestKindMismatch pins the refusal of a current-version file of
// another kind: kind 1, the retired generation record, fails with
// ErrCheckpointMismatch and a message that says what replaced it.
func TestKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.ckpt")
	if err := os.WriteFile(path, header(Version, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSearch(path)
	if !errors.Is(err, errs.ErrCheckpointMismatch) {
		t.Fatalf("got %v, want ErrCheckpointMismatch", err)
	}
	for _, want := range []string{"generation checkpoints are gone", "same seed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message %q does not mention %q", err, want)
		}
	}
}

func TestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()

	// Bad magic.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSearch(bad); !errors.Is(err, errs.ErrCheckpointCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCheckpointCorrupt", err)
	}

	// Truncated payload, cut at every length short of the whole file.
	_, b := saved(t)
	trunc := filepath.Join(dir, "trunc.ckpt")
	for cut := range len(b) {
		if err := os.WriteFile(trunc, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSearch(trunc); !errors.Is(err, errs.ErrCheckpointCorrupt) {
			t.Errorf("truncated to %d of %d bytes: got %v, want ErrCheckpointCorrupt", cut, len(b), err)
		}
	}

	// A curve count no file backs is reported as what it is.
	huge := filepath.Join(dir, "huge.ckpt")
	b = binary.AppendUvarint(append(header(Version, KindSearch), 0), maxCount+1)
	if err := os.WriteFile(huge, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSearch(huge); !errors.Is(err, errs.ErrCheckpointCorrupt) ||
		!strings.Contains(err.Error(), "implausible curve count") {
		t.Errorf("huge curve count: got %v, want ErrCheckpointCorrupt naming the count", err)
	}

	// Missing file surfaces the OS error, not a corruption claim.
	if _, err := LoadSearch(filepath.Join(dir, "absent.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want fs not-exist", err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	if err := SaveSearch(path, testRecord()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "search.ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only search.ckpt", names)
	}
}

// TestCheckMeta pins the resume check: equal metadata passes, and any
// difference, a key on one side only included, fails with
// ErrCheckpointMismatch naming the first differing key in sorted order.
func TestCheckMeta(t *testing.T) {
	rec := &SearchRecord{Meta: map[string]string{"frames": "30000", "slices": "false", "trace": "ab"}}
	if err := rec.CheckMeta(map[string]string{"trace": "ab", "slices": "false", "frames": "30000"}); err != nil {
		t.Errorf("equal metadata refused: %v", err)
	}
	for _, c := range []struct {
		want map[string]string
		msg  string
	}{
		{map[string]string{"frames": "30000", "slices": "true", "trace": "cd"}, `slices="false", this run has slices="true"`},
		{map[string]string{"frames": "30000", "slices": "false", "trace": "cd"}, `trace="ab", this run has trace="cd"`},
		{map[string]string{"frames": "30000", "seed": "9", "slices": "false", "trace": "ab"}, `seed="", this run has seed="9"`},
		{map[string]string{"frames": "30000", "trace": "ab"}, `slices="false", this run has slices=""`},
	} {
		err := rec.CheckMeta(c.want)
		if !errors.Is(err, errs.ErrCheckpointMismatch) || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("CheckMeta(%v) = %v, want ErrCheckpointMismatch with %q", c.want, err, c.msg)
		}
	}
}

// FuzzLoadSearch feeds arbitrary bytes to the search-record loader: it
// must fail with a checkpoint sentinel or return a record whose curves
// each hold as many X as Y points, never panic, and never allocate
// ahead of the data a length field claims.
func FuzzLoadSearch(f *testing.F) {
	var good bytes.Buffer
	w := bufio.NewWriter(&good)
	writeHeader(w, KindSearch)
	rec := testRecord()
	writeMeta(w, rec.Meta)
	writeUvarint(w, uint64(len(rec.State.Curves)))
	for _, c := range rec.State.Curves {
		writeString(w, c.Key)
		w.WriteByte(1)
		writeFloats(w, c.X)
		writeFloats(w, c.Y)
	}
	w.Flush()
	f.Add(good.Bytes())
	f.Add(header(1, KindSearch))
	f.Add(header(Version, 1))
	// Counts far beyond the data that follows them.
	var short bytes.Buffer
	w = bufio.NewWriter(&short)
	writeHeader(w, KindSearch)
	writeUvarint(w, maxCount)
	writeUvarint(w, maxCount)
	w.Flush()
	f.Add(short.Bytes())
	short.Reset()
	w = bufio.NewWriter(&short)
	writeHeader(w, KindSearch)
	writeMeta(w, nil)
	writeUvarint(w, 1)
	writeString(w, "k")
	w.WriteByte(0)
	writeUvarint(w, maxCount)
	writeFloat(w, 1)
	w.Flush()
	f.Add(short.Bytes())
	// Many tiny entries, each backed by its few bytes of data.
	var many bytes.Buffer
	w = bufio.NewWriter(&many)
	writeHeader(w, KindSearch)
	writeUvarint(w, 4096)
	for range 4096 {
		writeString(w, "k")
		writeString(w, "v")
	}
	writeUvarint(w, 4096)
	for range 4096 {
		writeString(w, "c")
		w.WriteByte(0)
		writeFloats(w, nil)
		writeFloats(w, nil)
	}
	w.Flush()
	f.Add(many.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := readSearch(bufio.NewReader(bytes.NewReader(data)), "fuzz")
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrCheckpointCorrupt) && !errors.Is(err, errs.ErrCheckpointVersion) &&
				!errors.Is(err, errs.ErrCheckpointMismatch) {
				t.Fatalf("error matches no checkpoint sentinel: %v", err)
			}
			return
		}
		for _, c := range rec.State.Curves {
			if len(c.X) != len(c.Y) {
				t.Fatalf("curve %q loaded with %d X and %d Y points", c.Key, len(c.X), len(c.Y))
			}
		}
	})
}
