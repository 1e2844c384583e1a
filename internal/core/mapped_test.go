package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmap"
	"repro/internal/persist"
	"repro/internal/xpath"
)

// TestMappedIdenticalOutput is the zero-copy correctness contract: for
// every corpus shape, a memory-mapped engine must produce byte-identical
// query output to the copying load path, under each of the three
// evaluator configurations the oracle suite uses (default planner,
// bottom-up disabled, naive text predicates).
func TestMappedIdenticalOutput(t *testing.T) {
	corpora := []struct {
		name string
		data []byte
		qs   []string
	}{
		{"xmark", gen.XMark(3, 60_000), []string{
			"//listitem//keyword", "//item[@id]/name", "//keyword/ancestor::listitem",
			"//parlist/preceding-sibling::text", "//closed_auction[annotation]",
		}},
		{"medline", gen.Medline(9, 60_000), []string{
			"//MedlineCitation", "//Author/LastName", "//PMID",
			"//Article[contains(., 'the')]",
		}},
		{"treebank", gen.Treebank(4, 40_000), []string{
			"//VP/preceding-sibling::NP", "//NP[not(.//PP)]", "//S//VP",
		}},
		{"wiki", gen.Wiki(5, 60_000), []string{
			"//page//title", "//revision/parent::page",
		}},
		{"bioxml", gen.BioXML(6, 60_000), []string{
			"//exon/ancestor-or-self::gene", "//sequence",
		}},
	}
	configs := []struct {
		name string
		opts xpath.Options
	}{
		{"default", xpath.Options{}},
		{"no-bottomup", xpath.Options{DisableBottomUp: true}},
		{"naive-text", xpath.Options{ForceNaiveText: true}},
	}
	dir := t.TempDir()
	for _, c := range corpora {
		built, err := Build(c.data, Config{SampleRate: 8})
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		path := filepath.Join(dir, c.name+".sxsi")
		if _, err := built.SaveFile(path); err != nil {
			t.Fatalf("%s: save: %v", c.name, err)
		}
		copied, err := LoadFile(path, Config{SampleRate: 8})
		if err != nil {
			t.Fatalf("%s: copy load: %v", c.name, err)
		}
		mapped, err := OpenFile(path, Config{SampleRate: 8})
		if err != nil {
			t.Fatalf("%s: mapped open: %v", c.name, err)
		}
		if mapped.Mapped() != mmap.Supported {
			t.Fatalf("%s: OpenFile mapped=%v on a platform with mmap=%v", c.name, mapped.Mapped(), mmap.Supported)
		}
		if copied.Mapped() {
			t.Fatalf("%s: LoadFile claims to be mapped", c.name)
		}
		for _, cfg := range configs {
			em := mapped.WithQueryOptions(cfg.opts)
			ec := copied.WithQueryOptions(cfg.opts)
			for _, q := range c.qs {
				nm, err1 := em.Count(q)
				nc, err2 := ec.Count(q)
				if err1 != nil || err2 != nil || nm != nc {
					t.Fatalf("%s/%s/%s: count %d/%v vs %d/%v", c.name, cfg.name, q, nm, err1, nc, err2)
				}
				var sm, sc bytes.Buffer
				km, err1 := em.Serialize(q, &sm)
				kc, err2 := ec.Serialize(q, &sc)
				if err1 != nil || err2 != nil || km != kc {
					t.Fatalf("%s/%s/%s: serialize %d/%v vs %d/%v", c.name, cfg.name, q, km, err1, kc, err2)
				}
				if !bytes.Equal(sm.Bytes(), sc.Bytes()) {
					t.Fatalf("%s/%s/%s: serialized bytes differ", c.name, cfg.name, q)
				}
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("%s: close: %v", c.name, err)
		}
	}
}

// TestMappedRunLength: the run-length sequence cannot alias (it is
// rebuilt from the BWT), but a mapped open with RunLength must still give
// identical results.
func TestMappedRunLength(t *testing.T) {
	data := gen.BioXML(2, 40_000)
	built, err := Build(data, Config{RunLength: true, SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rl.sxsi")
	if _, err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path, Config{RunLength: true, SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for _, q := range []string{"//gene//exon", "//sequence[contains(., 'ACG')]"} {
		a, err1 := built.Count(q)
		b, err2 := mapped.Count(q)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("%s: %d/%v vs %d/%v", q, a, err1, b, err2)
		}
	}
}

// TestOpenFileFallbacks: NoMmap takes the private-buffer path, is not
// reported as mapped, and still answers queries.
func TestOpenFileFallbacks(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	noMap, err := OpenFile(path, Config{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if noMap.Mapped() {
		t.Fatal("NoMmap engine claims to be mapped")
	}
	if n, err := noMap.Count("//item"); err != nil || n != 2 {
		t.Fatalf("count=%d err=%v", n, err)
	}
}

// TestOpenFileCorruptMapped drives corrupted index files through OpenFile
// itself — a real mapping, unlike the heap buffers of the xmltree
// corruption suite — so the error path that unmaps while background
// validation could still be running is exercised against live mmap'd
// pages. Every outcome must be a clean load or a typed error; any crash
// here is a loader goroutine outliving its mapping.
func TestOpenFileCorruptMapped(t *testing.T) {
	eng, err := Build(gen.Medline(13, 30_000), Config{SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(orig); i += 31 {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenFile(path, Config{SampleRate: 8})
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("byte %d: untyped error %v", i, err)
			}
			continue
		}
		got.Close()
	}
}

// TestMappedStats: the stats of a mapped engine expose the mapped/heap
// split; built and loaded engines — whose payloads live in private memory
// even when they alias a Load buffer — report zero mapped bytes.
func TestMappedStats(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	n, err := e.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	st := mapped.Stats()
	if mmap.Supported && (!st.Mapped || int64(st.MappedBytes) != n) {
		t.Fatalf("mapped stats: %+v (file %d bytes)", st, n)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(saved), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, heap := range []*Engine{e, loaded} {
		if hs := heap.Stats(); hs.Mapped || hs.MappedBytes != 0 || heap.Mapped() {
			t.Fatalf("heap engine stats: %+v", hs)
		}
	}
}

// TestSaveFileAtomic: SaveFile leaves exactly the target file — no
// temporaries — both for fresh writes and overwrites, and the result
// loads. A failed save (unwritable directory) must not leave debris.
func TestSaveFileAtomic(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.sxsi")
	for i := 0; i < 2; i++ { // fresh write, then overwrite
		if _, err := e.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "doc.sxsi" {
		names := make([]string, len(entries))
		for i, en := range entries {
			names[i] = en.Name()
		}
		t.Fatalf("directory not clean after save: %s", strings.Join(names, ", "))
	}
	if _, err := OpenFile(path, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SaveFile(filepath.Join(dir, "absent", "doc.sxsi")); err == nil {
		t.Fatal("save into missing directory: expected error")
	}
}

// TestEngineCloseIdempotent: Close twice, and Close on a heap engine, are
// both fine.
func TestEngineCloseIdempotent(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedEngineIsZeroCopy pins the aliasing property at the engine
// level: the mapped document's parenthesis words must point into the
// mapped region, not at a private copy.
func TestMappedEngineIsZeroCopy(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmap.Supported && m.Stats().MappedBytes == 0 {
		t.Fatal("no mapped bytes")
	}
	// The engine and a re-opened engine must not share heap: two separate
	// opens alias the same file but different mappings, and both answer.
	m2, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	a, _ := m.Count("//item")
	b, _ := m2.Count("//item")
	if a != b || a != 2 {
		t.Fatalf("counts %d/%d", a, b)
	}
}
