package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"sync"
	"unsafe"
)

// nativeIsLittle reports whether the host is little-endian. Payload aliasing
// reinterprets on-disk little-endian words as host integers, so on a
// big-endian host MReader transparently falls back to copying decodes.
var nativeIsLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MReader deserializes the primitives written by Writer from an in-memory
// buffer — an mmap'd index file, or the aligned private buffer of copy
// mode. Words, Int32s, Bytes and Raw return slices that alias the buffer
// instead of copying it, so loading a structure through an MReader costs
// O(derived directories), not O(index size), and on a mapping the pages
// behind the payloads stay shared with the OS page cache.
//
// Aliasing []uint64 and []int32 requires the element start to sit on its
// natural boundary in memory. The container format guarantees the right
// in-buffer offsets; the buffer itself must start 8-byte aligned (mmap
// regions are page-aligned; heap buffers must come from AlignedBuffer or
// ReadAll). When the buffer start is unaligned or the host is big-endian,
// MReader silently decodes by copying instead — callers still get correct
// data, just not zero-copy.
//
// The returned slices share memory with the buffer: they are read-only and
// valid only while the backing buffer (and any mapping behind it) stays
// alive and unchanged. The first error sticks and subsequent reads return
// zero values; check Err once after the last read, or rely on the
// validation the caller performs on the decoded values.
type MReader struct {
	data     []byte
	off      int
	canAlias bool
	err      error
}

// NewMReader returns an MReader over data.
func NewMReader(data []byte) *MReader {
	mr := &MReader{data: data}
	mr.canAlias = nativeIsLittle &&
		(len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))&7 == 0)
	return mr
}

// Aliasing reports whether payload slices alias the buffer (as opposed to
// the copying fallback for unaligned buffers or big-endian hosts).
func (mr *MReader) Aliasing() bool { return mr.canAlias }

func (mr *MReader) fail(what string) {
	if mr.err == nil {
		mr.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
}

// need reserves n more bytes, failing with a corruption error on overrun.
func (mr *MReader) need(n int) bool {
	if mr.err != nil {
		return false
	}
	if n < 0 || n > len(mr.data)-mr.off {
		mr.fail("unexpected end of input")
		return false
	}
	return true
}

// align8 skips the padding emitted before a word-sized payload.
func (mr *MReader) align8() {
	if pad := -mr.off & 7; pad > 0 && mr.need(pad) {
		mr.off += pad
	}
}

// Byte reads a single byte.
func (mr *MReader) Byte() byte {
	if !mr.need(1) {
		return 0
	}
	b := mr.data[mr.off]
	mr.off++
	return b
}

// Uint32 reads a fixed 4-byte little-endian value.
func (mr *MReader) Uint32() uint32 {
	if !mr.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(mr.data[mr.off:])
	mr.off += 4
	return v
}

// Uint64 reads a fixed 8-byte little-endian value.
func (mr *MReader) Uint64() uint64 {
	if !mr.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(mr.data[mr.off:])
	mr.off += 8
	return v
}

// Int reads a non-negative int, rejecting implausible values.
func (mr *MReader) Int() int {
	v := mr.Uint64()
	if v > maxLen {
		mr.fail(fmt.Sprintf("implausible length %d", v))
		return 0
	}
	return int(v)
}

// Int32 reads an int32.
func (mr *MReader) Int32() int32 { return int32(mr.Uint32()) }

// sliceLen reads a length-prefixed element count and bounds it against the
// bytes remaining in the buffer before the caller slices or allocates: a
// count only escapes this helper once esize*n payload bytes are known to be
// present, so a corrupt length field can never size an allocation larger
// than the section that claims to hold it.
func (mr *MReader) sliceLen(esize int) (n int, ok bool) {
	n = mr.Int()
	if mr.err != nil || !mr.need(esize*n) {
		return 0, false
	}
	return n, true
}

// Bytes reads a length-prefixed byte slice aliasing the buffer.
func (mr *MReader) Bytes() []byte {
	n, ok := mr.sliceLen(1)
	if !ok {
		return nil
	}
	return mr.Raw(n)
}

// String reads a length-prefixed string. Strings are copied — string
// immutability must not depend on the mapping.
func (mr *MReader) String() string { return string(mr.Bytes()) }

// Raw returns exactly n unprefixed bytes aliasing the buffer.
func (mr *MReader) Raw(n int) []byte {
	if mr.err == nil && (n < 0 || n > maxLen) {
		mr.fail(fmt.Sprintf("implausible raw length %d", n))
	}
	if n == 0 || !mr.need(n) {
		return nil
	}
	b := mr.data[mr.off : mr.off+n : mr.off+n]
	mr.off += n
	return b
}

// Words reads a length-prefixed []uint64 aliasing the buffer (zero-copy on
// aligned little-endian buffers, copied otherwise).
func (mr *MReader) Words() []uint64 {
	mr.align8()
	n, ok := mr.sliceLen(8)
	if !ok {
		return nil
	}
	if n == 0 {
		return []uint64{}
	}
	if mr.canAlias {
		ws := unsafe.Slice((*uint64)(unsafe.Pointer(&mr.data[mr.off])), n)
		mr.off += 8 * n
		return ws
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(mr.data[mr.off+8*i:])
	}
	mr.off += 8 * n
	return ws
}

// Int32s reads a length-prefixed []int32 aliasing the buffer.
func (mr *MReader) Int32s() []int32 {
	mr.align8()
	n, ok := mr.sliceLen(4)
	if !ok {
		return nil
	}
	if n == 0 {
		return []int32{}
	}
	if mr.canAlias {
		xs := unsafe.Slice((*int32)(unsafe.Pointer(&mr.data[mr.off])), n)
		mr.off += 4 * n
		return xs
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(mr.data[mr.off+4*i:]))
	}
	mr.off += 4 * n
	return xs
}

// Err returns the first read error.
func (mr *MReader) Err() error { return mr.err }

// Check returns cond ? nil : a corruption error with the given context.
// Loaders use it to turn validation failures into uniform errors.
func (mr *MReader) Check(cond bool, what string) error {
	if mr.err != nil {
		return mr.err
	}
	if !cond {
		mr.fail(what)
	}
	return mr.err
}

// AlignedBuffer returns an 8-byte-aligned byte slice of length n, for
// buffers that must feed an MReader without an mmap region behind them.
func AlignedBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// ReadAll reads r to EOF into one 8-byte-aligned private buffer: the copy
// mode input of the mapped decoders. The buffer is sized up front when r
// reports its length — a regular file's Stat size, or Len() for
// bytes.Reader, bytes.Buffer and strings.Reader — so the common loads
// allocate once and never copy. Only readers of unknown length grow the
// buffer by doubling.
func ReadAll(r io.Reader) ([]byte, error) {
	size := 512
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if st, err := s.Stat(); err == nil && st.Mode().IsRegular() && int64(int(st.Size())) == st.Size() {
			size = int(st.Size())
		}
	}
	// One spare byte lets the EOF read land without growing an exactly
	// sized buffer.
	buf := AlignedBuffer(size + 1)
	n := 0
	for {
		if n == len(buf) {
			grown := AlignedBuffer(2 * len(buf))
			copy(grown, buf)
			buf = grown
		}
		k, err := r.Read(buf[n:])
		n += k
		if err == io.EOF {
			return buf[:n:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// EnsureAligned returns data if its base is 8-byte aligned, or an aligned
// private copy otherwise. Mapped loads require the former; the copy keeps
// odd callers (tests, fuzzing) correct at the cost of zero-copy.
func EnsureAligned(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))&7 == 0 {
		return data
	}
	cp := AlignedBuffer(len(data))
	copy(cp, data)
	return cp
}

// Chunked runs fn over the index ranges of [0, n), split across the CPUs:
// MReader payloads are random-access and fully bounds-checked up front, so
// validation and slicing passes over them parallelize trivially. fn must
// treat its range as exclusive property; Chunked waits for all chunks.
func Chunked(n int, fn func(lo, hi int)) {
	const minChunk = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || n < 2*minChunk {
		fn(0, n)
		return
	}
	if workers > n/minChunk {
		workers = n / minChunk
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// --- Mapped container ---

// MappedFile walks the sections of a container held in memory. Sections
// decode through MReaders, so payloads alias the buffer.
type MappedFile struct {
	data []byte
	pos  int
}

// OpenMappedContainer checks the magic and version of the container in
// data and positions a section walker at the first section. Only the given
// version is understood: newer files come from a newer build, and older
// ones predate the aligned layout and must be rebuilt from their source.
// Both are reported as errors wrapping ErrCorrupt that name the version.
func OpenMappedContainer(data []byte, magic string, version uint16) (*MappedFile, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	switch ver := binary.LittleEndian.Uint16(data[len(magic):]); {
	case ver > version:
		return nil, fmt.Errorf("%w: unsupported format version %d (newest understood: %d)", ErrCorrupt, ver, version)
	case ver < version:
		return nil, fmt.Errorf("%w: legacy format version %d (this build reads version %d); rebuild the index from its XML source", ErrCorrupt, ver, version)
	}
	mf := &MappedFile{data: data, pos: len(magic) + 2}
	mf.pos += -mf.pos & 7 // header padding
	return mf, nil
}

// Next returns the next section's id and an MReader over its payload, or
// id 0 at the end marker.
func (mf *MappedFile) Next() (uint32, *MReader, error) {
	mf.pos += -mf.pos & 7
	if mf.pos+4 > len(mf.data) {
		return 0, nil, fmt.Errorf("%w: missing section header", ErrCorrupt)
	}
	id := binary.LittleEndian.Uint32(mf.data[mf.pos:])
	mf.pos += 4
	if id == 0 {
		return 0, nil, nil
	}
	if mf.pos+12 > len(mf.data) {
		return 0, nil, fmt.Errorf("%w: missing section header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint64(mf.data[mf.pos+4:])
	mf.pos += 12
	if length > maxLen || length > uint64(len(mf.data)-mf.pos) {
		return 0, nil, fmt.Errorf("%w: truncated section", ErrCorrupt)
	}
	payload := mf.data[mf.pos : mf.pos+int(length) : mf.pos+int(length)]
	mf.pos += int(length)
	return id, NewMReader(payload), nil
}
