// Package persisttest drives a structure's Store/Read pair through the
// same Writer and MReader a container section uses, for round-trip and
// corruption tests that need no container around the payload.
package persisttest

import (
	"bytes"

	"repro/internal/persist"
)

// Encode returns the bytes store serializes.
func Encode(store func(*persist.Writer)) []byte {
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	store(pw)
	if err := pw.Flush(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// Decode runs read over an MReader on data (copied first if its base is
// not 8-byte aligned) and returns the result, or the reader's first error.
func Decode[T any](data []byte, read func(*persist.MReader) T) (T, error) {
	mr := persist.NewMReader(persist.EnsureAligned(data))
	v := read(mr)
	if err := mr.Err(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}
