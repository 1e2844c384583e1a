package search

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/mmap"
	"repro/internal/persist"
)

// On-disk layout: a persist container (the same aligned section framing
// every other structure uses), magic "SXSIPOST". Section 1 is the
// metadata (document count, total token count); each document is its own
// section 2 — name, token count, the sorted term blob, the int32 end
// offsets and the int32 term frequencies. The aligned layout means
// OpenIndexFile can mmap the file and alias the blob and int32 payloads
// in place, like every other index structure.

// PostingsMagic identifies a saved posting index.
const PostingsMagic = "SXSIPOST"

const (
	postingsVersion = 1

	secMeta = 1
	secDoc  = 2
)

// maxDocs bounds the document count read from disk before it sizes an
// allocation; no real collection comes close.
const maxDocs = 1 << 24

// Save writes the index (a point-in-time snapshot of it) to w in
// deterministic (name-sorted) order.
func (ix *Index) Save(w io.Writer) (int64, error) {
	s := ix.Snapshot()
	names := make([]string, 0, len(s.Docs))
	for name := range s.Docs {
		names = append(names, name)
	}
	sort.Strings(names)
	fw := persist.NewFileWriter(w, PostingsMagic, postingsVersion)
	fw.Section(secMeta, func(pw *persist.Writer) {
		pw.Int(len(names))
		pw.Int(int(s.Total))
	})
	for _, name := range names {
		dp := s.Docs[name]
		fw.Section(secDoc, func(pw *persist.Writer) {
			pw.String(name)
			pw.Int(int(dp.tokens))
			pw.Bytes(dp.blob)
			pw.Int32s(dp.offs)
			pw.Int32s(dp.tf)
		})
	}
	return fw.Close()
}

// SaveFile writes the index to path crash-safely (temp file + fsync +
// atomic rename, like Engine.SaveFile).
func (ix *Index) SaveFile(path string) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	n, err := ix.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return n, err
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return n, nil
}

// IsPostingsData reports whether data begins with the posting-index magic.
func IsPostingsData(data []byte) bool {
	return len(data) >= len(PostingsMagic) && string(data[:len(PostingsMagic)]) == PostingsMagic
}

// LoadIndexMapped reads an index written by Save out of data — typically
// a mapped file — aliasing the term blobs and int32 arrays in place. data
// must stay alive and unchanged for the index's whole lifetime
// (OpenIndexFile manages that automatically).
func LoadIndexMapped(data []byte) (*Index, error) {
	mf, err := persist.OpenMappedContainer(data, PostingsMagic, postingsVersion)
	if err != nil {
		return nil, err
	}
	return readSections(mf)
}

// OpenIndexFile opens a saved posting index, memory-mapped when the
// platform allows: the postings alias the mapping, which stays alive for
// as long as any postings loaded from it are reachable and is released by
// a finalizer afterwards.
func OpenIndexFile(path string) (*Index, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := LoadIndexMapped(m.Data())
	if err != nil {
		m.Close()
		return nil, err
	}
	// Pin the mapping from every postings value handed out: snapshots may
	// outlive the Index itself. Once the last postings value is
	// unreachable, the finalizer releases the mapping.
	runtime.SetFinalizer(m, (*mmap.File).Close)
	ix.mu.Lock()
	for _, dp := range ix.docs {
		dp.backing = m
	}
	ix.mu.Unlock()
	return ix, nil
}

// readSections decodes the container sections into an Index. The documents
// accumulate in a local map and are installed under the lock in one step,
// so the Index is never observable half-filled.
func readSections(mf *persist.MappedFile) (*Index, error) {
	docs := make(map[string]*DocPostings)
	var total int64
	sawMeta := false
	wantDocs := 0
	var wantTotal int64
	for {
		id, pr, err := mf.Next()
		if err != nil {
			return nil, err
		}
		if id == 0 {
			break
		}
		switch id {
		case secMeta:
			if sawMeta {
				return nil, fmt.Errorf("%w: duplicate postings metadata", persist.ErrCorrupt)
			}
			sawMeta = true
			wantDocs = pr.Int()
			wantTotal = int64(pr.Int())
			if err := pr.Check(wantDocs >= 0 && wantDocs <= maxDocs && wantTotal >= 0,
				"postings metadata out of range"); err != nil {
				return nil, err
			}
		case secDoc:
			dp, name, err := readDoc(pr)
			if err != nil {
				return nil, err
			}
			if _, dup := docs[name]; dup {
				return nil, fmt.Errorf("%w: duplicate postings document %q", persist.ErrCorrupt, name)
			}
			docs[name] = dp
			total += dp.tokens
		default:
			// Unknown section from a future minor revision: skip.
		}
		if err := pr.Err(); err != nil {
			return nil, err
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("%w: postings metadata missing", persist.ErrCorrupt)
	}
	if len(docs) != wantDocs || total != wantTotal {
		return nil, fmt.Errorf("%w: postings metadata disagrees with sections", persist.ErrCorrupt)
	}
	ix := NewIndex()
	ix.mu.Lock()
	ix.docs = docs
	ix.total = total
	ix.mu.Unlock()
	return ix, nil
}

// readDoc decodes and validates one document section.
func readDoc(pr *persist.MReader) (*DocPostings, string, error) {
	name := pr.String()
	tokens := pr.Int()
	dp := &DocPostings{
		blob:   pr.Bytes(),
		offs:   pr.Int32s(),
		tf:     pr.Int32s(),
		tokens: int64(tokens),
	}
	if err := pr.Err(); err != nil {
		return nil, "", err
	}
	if err := pr.Check(name != "" && tokens >= 0, "bad postings document header"); err != nil {
		return nil, "", err
	}
	if err := pr.Check(len(dp.tf) == len(dp.offs), "postings array lengths mismatch"); err != nil {
		return nil, "", err
	}
	var sum int64
	prev := int32(0)
	for i, off := range dp.offs {
		if off <= prev || int(off) > len(dp.blob) {
			return nil, "", fmt.Errorf("%w: postings term offsets not increasing", persist.ErrCorrupt)
		}
		if i > 0 && bytes.Compare(dp.term(i-1), dp.term(i)) >= 0 {
			return nil, "", fmt.Errorf("%w: postings terms not sorted", persist.ErrCorrupt)
		}
		if dp.tf[i] <= 0 {
			return nil, "", fmt.Errorf("%w: nonpositive term frequency", persist.ErrCorrupt)
		}
		sum += int64(dp.tf[i])
		prev = off
	}
	if len(dp.offs) > 0 && int(dp.offs[len(dp.offs)-1]) != len(dp.blob) {
		return nil, "", fmt.Errorf("%w: postings blob length mismatch", persist.ErrCorrupt)
	}
	if len(dp.offs) == 0 && len(dp.blob) != 0 {
		return nil, "", fmt.Errorf("%w: postings blob without terms", persist.ErrCorrupt)
	}
	if sum != dp.tokens {
		return nil, "", fmt.Errorf("%w: postings token count disagrees with frequencies", persist.ErrCorrupt)
	}
	return dp, name, nil
}
