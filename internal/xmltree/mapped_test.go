package xmltree

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"repro/internal/persist"
)

// mappedBytesOf saves d and reloads it through the mapped path.
func mappedBytesOf(t *testing.T, d *Doc) []byte {
	t.Helper()
	return persist.EnsureAligned(saveBytes(t, d))
}

// TestReadIndexMappedRoundTrip: a mapped load must behave identically to
// the parsed original, across every observable of checkDocsEqual, and its
// texts must alias the buffer rather than a private copy.
func TestReadIndexMappedRoundTrip(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := mappedBytesOf(t, d)
	got, err := ReadIndexMapped(data, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	text := got.Text(0)
	base := uintptr(unsafe.Pointer(&data[0]))
	if p := uintptr(unsafe.Pointer(&text[0])); p < base || p >= base+uintptr(len(data)) {
		t.Fatal("loaded text does not alias the buffer")
	}
	checkDocsEqual(t, d, got)
}

// TestReadIndexMappedSkipVariants: every option combination decodes the
// same document.
func TestReadIndexMappedSkipVariants(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := mappedBytesOf(t, d)
	for _, opts := range []Options{
		{SkipFM: true},
		{SkipPlain: true, SampleRate: 4},
		{SampleRate: 4},
	} {
		got, err := ReadIndexMapped(data, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if opts.SkipFM && got.FM != nil {
			t.Fatal("FM built despite SkipFM")
		}
		if opts.SkipPlain && got.Plain != nil {
			t.Fatal("plain store kept despite SkipPlain")
		}
		var s1, s2 bytes.Buffer
		if err := d.GetSubtree(d.Root(), &s1); err != nil {
			t.Fatal(err)
		}
		if err := got.GetSubtree(got.Root(), &s2); err != nil {
			t.Fatal(err)
		}
		if s1.String() != s2.String() {
			t.Fatalf("%+v: serialization differs", opts)
		}
	}
}

// TestReadIndexMappedCorrupt: every truncation and every single-byte
// corruption must either load or fail with the typed error — no panics,
// no out-of-bounds reads on short buffers.
func TestReadIndexMappedCorrupt(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := mappedBytesOf(t, d)

	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadIndexMapped(persist.EnsureAligned(data[:cut]), Options{}); err == nil {
			t.Fatalf("cut=%d: no error", cut)
		} else if !errors.Is(err, ErrBadIndexFile) {
			t.Fatalf("cut=%d: %v", cut, err)
		}
	}

	for i := range data {
		mut := persist.EnsureAligned(append([]byte(nil), data...))
		mut[i] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d: panic %v", i, r)
				}
			}()
			_, err := ReadIndexMapped(mut, Options{})
			if err != nil && !errors.Is(err, ErrBadIndexFile) {
				t.Fatalf("byte %d: unexpected error %v", i, err)
			}
		}()
	}
}

// TestResaveByteIdentical: load → save must be a fixed point, so a saved
// index reopens as the same structure it was built as.
func TestResaveByteIdentical(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	first := saveBytes(t, d)
	viaMap, err := ReadIndexMapped(persist.EnsureAligned(first), Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if second := saveBytes(t, viaMap); !bytes.Equal(first, second) {
		t.Fatal("mapped re-save differs")
	}
}

// FuzzLoadMapped drives arbitrary bytes through the mapped loader: any
// outcome but a clean load or a typed error is a bug. Loaded documents
// get a cheap traversal to catch structures that validated but are
// inconsistent enough to fault.
func FuzzLoadMapped(f *testing.F) {
	d, err := Parse([]byte(serializeDoc), Options{SampleRate: 4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:8])
	legacy := append([]byte(nil), seed...)
	legacy[len(IndexMagic)] = 2 // a pre-alignment version label
	f.Add(legacy)
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadIndexMapped(persist.EnsureAligned(data), Options{})
		if err != nil {
			if !errors.Is(err, ErrBadIndexFile) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		n := 0
		for x := doc.Root(); x != Nil && n < 1<<16; x = doc.FirstChild(x) {
			doc.TagOf(x)
			n++
		}
		for id := 0; id < doc.NumTexts(); id++ {
			doc.Text(id)
		}
		var sink bytes.Buffer
		doc.GetSubtree(doc.Root(), &sink)
	})
}
