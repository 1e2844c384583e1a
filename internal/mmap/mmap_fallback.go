//go:build !unix

package mmap

import (
	"os"

	"repro/internal/persist"
)

// Supported reports whether Open creates a real OS mapping on this
// platform.
const Supported = false

// open reads the whole file into an 8-byte-aligned private buffer — the
// same copy mode core.Load uses. The decoders alias payloads out of it
// exactly as they would out of a real mapping, so every caller above this
// package behaves identically; only the page sharing with the OS cache is
// lost.
func open(path string) (*File, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if _, err := statSize(file); err != nil {
		return nil, err
	}
	data, err := persist.ReadAll(file)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return &File{data: data, mapped: false}, nil
}

func (f *File) close() error {
	f.data = nil // the buffer is garbage-collected once unreferenced
	return nil
}
