package persist

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"
)

// writeAligned serializes one of every primitive, interleaving scalars
// with the padded word payloads, and returns the stream.
func writeAligned(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Byte(0xAB)
	pw.Words([]uint64{1, 1 << 63, 0})
	pw.Uint32(7)
	pw.Int32s([]int32{-1, 0, 1 << 30})
	pw.Int(123456)
	pw.Bytes([]byte("hello"))
	pw.String("wörld")
	pw.Words(nil)
	pw.Raw([]byte{9, 8, 7})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkAlignedStream(t *testing.T, pr *MReader) {
	t.Helper()
	if v := pr.Byte(); v != 0xAB {
		t.Fatalf("Byte=%x", v)
	}
	if w := pr.Words(); len(w) != 3 || w[1] != 1<<63 {
		t.Fatalf("Words=%v", w)
	}
	if v := pr.Uint32(); v != 7 {
		t.Fatalf("Uint32=%d", v)
	}
	if xs := pr.Int32s(); len(xs) != 3 || xs[0] != -1 || xs[2] != 1<<30 {
		t.Fatalf("Int32s=%v", xs)
	}
	if v := pr.Int(); v != 123456 {
		t.Fatalf("Int=%d", v)
	}
	if b := pr.Bytes(); string(b) != "hello" {
		t.Fatalf("Bytes=%q", b)
	}
	if s := pr.String(); s != "wörld" {
		t.Fatalf("String=%q", s)
	}
	if w := pr.Words(); len(w) != 0 {
		t.Fatalf("empty Words=%v", w)
	}
	if b := pr.Raw(3); !bytes.Equal(b, []byte{9, 8, 7}) {
		t.Fatalf("Raw=%v", b)
	}
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
}

// TestAlignedStreamRoundTrip decodes the padded stream through an MReader
// over an aligned buffer, the zero-copy configuration.
func TestAlignedStreamRoundTrip(t *testing.T) {
	checkAlignedStream(t, NewMReader(EnsureAligned(writeAligned(t))))
}

// TestMReaderAliases proves the zero-copy property: the slices returned by
// an aliasing MReader share memory with the buffer.
func TestMReaderAliases(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Words([]uint64{11, 22})
	pw.Int32s([]int32{33, 44})
	pw.Bytes([]byte("payload"))
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := EnsureAligned(buf.Bytes())
	mr := NewMReader(data)
	if !mr.Aliasing() {
		t.Skip("host cannot alias (big-endian)")
	}
	ws := mr.Words()
	xs := mr.Int32s()
	bs := mr.Bytes()
	if mr.Err() != nil {
		t.Fatal(mr.Err())
	}
	inBuf := func(p unsafe.Pointer) bool {
		base := uintptr(unsafe.Pointer(&data[0]))
		return uintptr(p) >= base && uintptr(p) < base+uintptr(len(data))
	}
	if !inBuf(unsafe.Pointer(&ws[0])) || !inBuf(unsafe.Pointer(&xs[0])) || !inBuf(unsafe.Pointer(&bs[0])) {
		t.Fatal("payload slices do not alias the buffer")
	}
	if ws[0] != 11 || ws[1] != 22 || xs[0] != 33 || xs[1] != 44 || string(bs) != "payload" {
		t.Fatalf("aliased values wrong: %v %v %q", ws, xs, bs)
	}
}

// TestMReaderUnalignedBaseCopies: a buffer with a misaligned base must
// still decode correctly (by copying).
func TestMReaderUnalignedBaseCopies(t *testing.T) {
	data := writeAligned(t)
	backing := make([]byte, len(data)+1)
	copy(backing[1:], data)
	mr := NewMReader(backing[1:])
	if mr.Aliasing() {
		t.Skip("allocator produced an aligned odd slice; nothing to test")
	}
	checkAlignedStream(t, mr)
}

// TestMReaderTruncation: every proper prefix fails with ErrCorrupt and
// never panics or over-reads.
func TestMReaderTruncation(t *testing.T) {
	data := writeAligned(t)
	for cut := 0; cut < len(data); cut++ {
		mr := NewMReader(EnsureAligned(data[:cut]))
		mr.Byte()
		mr.Words()
		mr.Uint32()
		mr.Int32s()
		mr.Int()
		mr.Bytes()
		_ = mr.String()
		mr.Words()
		mr.Raw(3)
		if !errors.Is(mr.Err(), ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, mr.Err())
		}
	}
}

// TestMReaderImplausibleLength: an absurd length prefix, or a negative or
// oversized raw length, fails with ErrCorrupt before anything is sliced
// or allocated.
func TestMReaderImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Uint64(1 << 62)
	pw.Flush()
	mr := NewMReader(EnsureAligned(buf.Bytes()))
	if b := mr.Bytes(); b != nil || !errors.Is(mr.Err(), ErrCorrupt) {
		t.Fatalf("b=%v err=%v", b, mr.Err())
	}
	for _, n := range []int{-1, maxLen + 1} {
		mr := NewMReader(make([]byte, 16))
		if b := mr.Raw(n); b != nil || !errors.Is(mr.Err(), ErrCorrupt) {
			t.Fatalf("Raw(%d): b=%v err=%v", n, b, mr.Err())
		}
	}
}

// TestMReaderErrorSticks: after the first failure every read returns a
// zero value and Err keeps reporting that first error.
func TestMReaderErrorSticks(t *testing.T) {
	mr := NewMReader(nil)
	mr.Uint64()
	first := mr.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	if xs := mr.Int32s(); xs != nil || mr.Err() != first {
		t.Fatalf("error did not stick: %v, %v", xs, mr.Err())
	}
	if mr.Check(true, "ok") != first {
		t.Fatal("Check hid the first error")
	}
}

// TestAlignedContainerRoundTrip writes a container whose sections end on
// odd offsets and checks that every section payload still starts on an
// 8-byte boundary, so word payloads alias the buffer in place.
func TestAlignedContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.String("one") })
	fw.Section(9, func(pw *Writer) { pw.Int(99) })
	fw.Section(2, func(pw *Writer) { pw.Byte(1); pw.Words([]uint64{5, 6}) })
	n, err := fw.Close()
	if err != nil {
		t.Fatal(err)
	}
	data := EnsureAligned(buf.Bytes())
	if n != int64(len(data)) {
		t.Fatalf("Close reported %d bytes, wrote %d", n, len(data))
	}
	mf, err := OpenMappedContainer(data, "MAGIC!", 3)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(&data[0]))
	for _, want := range []uint32{1, 9, 2} {
		id, mr, err := mf.Next()
		if err != nil || id != want {
			t.Fatalf("section %d: id=%d err=%v", want, id, err)
		}
		if off := uintptr(unsafe.Pointer(&mr.data[0])) - base; off&7 != 0 {
			t.Fatalf("section %d payload at offset %d", id, off)
		}
		switch id {
		case 1:
			if s := mr.String(); s != "one" {
				t.Fatalf("section 1 payload: %q", s)
			}
		case 2:
			if mr.Byte() != 1 {
				t.Fatal("section 2 leading byte")
			}
			w := mr.Words()
			if len(w) != 2 || w[0] != 5 || w[1] != 6 {
				t.Fatalf("section 2 payload: %v", w)
			}
			if mr.Aliasing() && uintptr(unsafe.Pointer(&w[0]))&7 != 0 {
				t.Fatal("section 2 words not aligned")
			}
		}
	}
	if id, _, err := mf.Next(); err != nil || id != 0 {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
}

// TestOpenMappedContainerRejects: wrong magic, future version,
// truncations.
func TestOpenMappedContainerRejects(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.Words(make([]uint64, 64)) })
	fw.Close()
	data := EnsureAligned(buf.Bytes())

	if _, err := OpenMappedContainer([]byte("WRONG!aa"), "MAGIC!", 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := OpenMappedContainer(data, "MAGIC!", 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version: %v", err)
	}

	for cut := 0; cut < len(data); cut++ {
		mf, err := OpenMappedContainer(EnsureAligned(data[:cut]), "MAGIC!", 3)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d header err=%v", cut, err)
			}
			continue
		}
		detected := false
		for {
			id, mr, err := mf.Next()
			if err != nil {
				detected = errors.Is(err, ErrCorrupt)
				break
			}
			if id == 0 {
				break
			}
			mr.Words()
			if mr.Err() != nil {
				detected = true
				break
			}
		}
		if !detected {
			t.Fatalf("cut=%d: truncation not detected", cut)
		}
	}
}

func TestEnsureAligned(t *testing.T) {
	if EnsureAligned(nil) != nil {
		t.Fatal("nil should stay nil")
	}
	backing := make([]byte, 17)
	for i := range backing {
		backing[i] = byte(i)
	}
	got := EnsureAligned(backing[1:])
	if uintptr(unsafe.Pointer(&got[0]))&7 != 0 {
		t.Fatal("result not aligned")
	}
	if !bytes.Equal(got, backing[1:]) {
		t.Fatal("copy differs")
	}
}
