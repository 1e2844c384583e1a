package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/collection"
)

// answerAll fills want[state] of every spec with the library's answer on
// col: XPath requests straight on the documents' engines (no cache, no
// HTTP), searches through Collection.Search. It runs on two workers, and
// records how long each first answer took as the spec's cost.
func answerAll(ctx context.Context, col *collection.Collection, specs []*spec, state int) error {
	jobs := make(chan *spec)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				start := time.Now()
				err := answerOne(ctx, col, s, state)
				if state == 0 {
					s.cost = time.Since(start)
				}
				if err != nil {
					errs <- fmt.Errorf("answer %s %q: %w", s.kind, s.q, err)
					for range jobs {
					}
					return
				}
			}
		}()
	}
	for _, s := range specs {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

func answerOne(ctx context.Context, col *collection.Collection, s *spec, state int) error {
	a := &s.want[state]
	switch s.kind {
	case kSearch:
		rep, err := col.Search(ctx, s.q, s.xpath, 0)
		if err != nil {
			return err
		}
		if len(rep.Failed) > 0 {
			return fmt.Errorf("search failed on %v", rep.Failed)
		}
		a.search = &searchAnswer{Candidates: rep.Candidates, Matched: rep.Matched, Hits: rep.Hits}
		return nil
	case kQuery:
		eng, ok := col.Get(s.doc)
		if !ok {
			return fmt.Errorf("unknown document %s", s.doc)
		}
		var cw crcWriter
		n, err := eng.SerializeContext(ctx, s.q, &cw)
		a.count, a.crc, a.size = int64(n), cw.crc, cw.size
		return err
	}
	docs := []string{s.doc}
	if s.doc == "*" {
		docs = col.Names()
		a.counts = map[string]int64{}
	}
	for _, doc := range docs {
		eng, ok := col.Get(doc)
		if !ok {
			return fmt.Errorf("unknown document %s", doc)
		}
		n, err := eng.CountContext(ctx, s.q)
		if err != nil {
			return err
		}
		if s.kind == kExists {
			n = b2i(n > 0)
		}
		if a.counts != nil {
			a.counts[doc] = n
		} else {
			a.count = n
		}
	}
	return nil
}
