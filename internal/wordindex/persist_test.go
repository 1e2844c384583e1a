package wordindex

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

func TestWordIndexSaveLoadRoundTrip(t *testing.T) {
	texts := [][]byte{
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("the quick red fox"),
		[]byte(""),
		[]byte("dog eat dog world"),
	}
	ix := mustNew(t, texts)
	got, err := persisttest.Decode(persisttest.Encode(ix.Store), Read)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWords() != ix.NumWords() || got.VocabSize() != ix.VocabSize() {
		t.Fatal("dimensions differ")
	}
	for _, phrase := range []string{
		"the quick", "fox", "dog", "quick brown fox", "lazy cat", "dog eat dog", "",
	} {
		if got.CountOccurrences(phrase) != ix.CountOccurrences(phrase) {
			t.Fatalf("CountOccurrences(%q)", phrase)
		}
		if !reflect.DeepEqual(got.ContainsPhrase(phrase), ix.ContainsPhrase(phrase)) {
			t.Fatalf("ContainsPhrase(%q)", phrase)
		}
	}
}

func TestWordIndexLoadCorrupt(t *testing.T) {
	ix := mustNew(t, [][]byte{[]byte("one two three"), []byte("two three four")})
	data := persisttest.Encode(ix.Store)
	for cut := 0; cut < len(data); cut++ {
		if _, err := persisttest.Decode(data[:cut], Read); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
	// A suffix array that is not a permutation must be rejected.
	bad := persisttest.Encode(ix.Store)
	// Find the sa section: it follows seq; corrupt its first entry by making
	// it equal to the second (duplicate → not a permutation). Rather than
	// hand-computing offsets, flip bytes until Read fails with a clean error
	// or succeeds; no input may panic.
	for i := range bad {
		mut := append([]byte(nil), bad...)
		mut[i] ^= 0xFF
		if _, err := persisttest.Decode(mut, Read); err != nil && !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("byte %d: unexpected error type %v", i, err)
		}
	}
}
