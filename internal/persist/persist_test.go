package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Uint64(42)
	pw.Uint32(7)
	pw.Byte(0xAB)
	pw.Int(123456)
	pw.Int32(-5)
	pw.Bytes([]byte("hello"))
	pw.Bytes(nil)
	pw.String("wörld")
	pw.Words([]uint64{1, 1 << 63, 0})
	pw.Int32s([]int32{-1, 0, 1 << 30})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if pw.Count() != int64(buf.Len()) {
		t.Fatalf("Count=%d len=%d", pw.Count(), buf.Len())
	}

	pr := NewMReader(EnsureAligned(buf.Bytes()))
	if v := pr.Uint64(); v != 42 {
		t.Fatalf("Uint64=%d", v)
	}
	if v := pr.Uint32(); v != 7 {
		t.Fatalf("Uint32=%d", v)
	}
	if v := pr.Byte(); v != 0xAB {
		t.Fatalf("Byte=%x", v)
	}
	if v := pr.Int(); v != 123456 {
		t.Fatalf("Int=%d", v)
	}
	if v := pr.Int32(); v != -5 {
		t.Fatalf("Int32=%d", v)
	}
	if b := pr.Bytes(); string(b) != "hello" {
		t.Fatalf("Bytes=%q", b)
	}
	if b := pr.Bytes(); len(b) != 0 {
		t.Fatalf("empty Bytes=%q", b)
	}
	if s := pr.String(); s != "wörld" {
		t.Fatalf("String=%q", s)
	}
	if w := pr.Words(); len(w) != 3 || w[1] != 1<<63 {
		t.Fatalf("Words=%v", w)
	}
	if xs := pr.Int32s(); len(xs) != 3 || xs[0] != -1 || xs[2] != 1<<30 {
		t.Fatalf("Int32s=%v", xs)
	}
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
}

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.String("one") })
	fw.Section(9, func(pw *Writer) { pw.Int(99) })
	fw.Section(2, func(pw *Writer) { pw.Words([]uint64{5, 6}) })
	n, err := fw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Close reported %d bytes, wrote %d", n, buf.Len())
	}

	mf, err := OpenMappedContainer(EnsureAligned(buf.Bytes()), "MAGIC!", 3)
	if err != nil {
		t.Fatal(err)
	}
	id, pr, err := mf.Next()
	if err != nil || id != 1 || pr.String() != "one" {
		t.Fatalf("section 1: id=%d err=%v", id, err)
	}
	// Section 9 is "unknown": skip it without reading the payload.
	id, _, err = mf.Next()
	if err != nil || id != 9 {
		t.Fatalf("section 9: id=%d err=%v", id, err)
	}
	id, pr, err = mf.Next()
	if err != nil || id != 2 {
		t.Fatalf("section 2: id=%d err=%v", id, err)
	}
	if w := pr.Words(); len(w) != 2 || w[0] != 5 {
		t.Fatalf("section 2 payload: %v", w)
	}
	id, _, err = mf.Next()
	if err != nil || id != 0 {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
}

// TestContainerBadHeader: wrong or truncated magic, a version from a newer
// build, and versions that predate the aligned layout (0 never existed, 2
// is the last unaligned one) are all refused before any payload is read,
// with an ErrCorrupt error that names the offending version.
func TestContainerBadHeader(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.Int(1) })
	fw.Close()
	data := EnsureAligned(buf.Bytes())

	if _, err := OpenMappedContainer([]byte("WRONG!...."), "MAGIC!", 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := OpenMappedContainer(data[:3], "MAGIC!", 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated magic: %v", err)
	}
	for _, c := range []struct {
		file, reader uint16
		want         string
	}{
		{3, 2, "version 3"},
		{2, 3, "legacy format version 2"},
		{0, 3, "legacy format version 0"},
	} {
		hdr := append([]byte(nil), data...)
		hdr[6], hdr[7] = byte(c.file), byte(c.file>>8)
		_, err := OpenMappedContainer(EnsureAligned(hdr), "MAGIC!", c.reader)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("file v%d, reader v%d: %v (want %q)", c.file, c.reader, err, c.want)
		}
	}
}

func TestContainerTruncatedSection(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 1)
	fw.Section(1, func(pw *Writer) { pw.Bytes(make([]byte, 500)) })
	fw.Section(2, func(pw *Writer) { pw.Int(2) })
	fw.Close()
	data := buf.Bytes()
	// Every proper prefix of the stream must surface ErrCorrupt somewhere —
	// at the header, at a section header, or inside a payload read.
	for cut := 0; cut < len(data); cut++ {
		mf, err := OpenMappedContainer(EnsureAligned(data[:cut]), "MAGIC!", 1)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d header err=%v", cut, err)
			}
			continue
		}
		detected := false
		for {
			id, pr, err := mf.Next()
			if err != nil {
				detected = errors.Is(err, ErrCorrupt)
				break
			}
			if id == 0 {
				break
			}
			pr.Bytes() // drive a payload read into the cut
			if pr.Err() != nil {
				detected = true
				break
			}
		}
		if !detected {
			t.Fatalf("cut=%d: truncation not detected", cut)
		}
	}
}

// limitedWriter fails after n bytes, exercising the write-error path.
type limitedWriter struct{ n int }

func (lw *limitedWriter) Write(p []byte) (int, error) {
	if lw.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	k := min(len(p), lw.n)
	lw.n -= k
	if k < len(p) {
		return k, io.ErrClosedPipe
	}
	return k, nil
}

func TestWriterErrorSticks(t *testing.T) {
	pw := NewWriter(&limitedWriter{n: 4})
	pw.Words(make([]uint64, 1<<16))
	if err := pw.Flush(); err == nil {
		t.Fatal("expected write error")
	}
	if pw.Err() == nil {
		t.Fatal("Err not sticky")
	}
}

// oneByteReader hides the length of its data, forcing ReadAll to grow.
type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

// TestReadAll: every kind of reader — sized (file, bytes.Reader,
// bytes.Buffer) or of unknown length, empty or longer than the growth
// step — yields the exact contents in an 8-byte-aligned buffer.
func TestReadAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, n := range []int{0, 1, 511, 512, 513, 5000} {
		want := bytes.Repeat([]byte{0x5A}, n)
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]io.Reader{
			"file":           f,
			"bytes.Reader":   bytes.NewReader(want),
			"bytes.Buffer":   bytes.NewBuffer(append([]byte(nil), want...)),
			"unknown-length": &oneByteReader{data: want},
		} {
			got, err := ReadAll(r)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: %d bytes, err=%v", name, n, len(got), err)
			}
			if n > 0 && uintptr(unsafe.Pointer(&got[0]))&7 != 0 {
				t.Fatalf("%s n=%d: buffer not 8-byte aligned", name, n)
			}
		}
		f.Close()
	}
	if _, err := ReadAll(failingReader{}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read error not propagated: %v", err)
	}
}

// failingReader fails on its first read.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }
