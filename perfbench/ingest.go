package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/query"
)

// runIngest is the archive-ingest workload: rounds of appending the seeded
// chain with archive.Writer, building timeline.idx with query.Build and
// reopening both, plus one torn-tail resume operation per round. The
// first round's archive and index are checked against the generator's
// truth; later rounds must reproduce the first round's bytes. Its
// operation is one round; its output is the archive on disk, day files
// plus index.
func runIngest(rc runConfig, spec chainSpec) (*outcome, error) {
	o := newOutcome()
	var ch *chain
	var setups []float64
	for i := 0; i < chainSetups; i++ {
		t0 := time.Now()
		ch = generate(spec, rc.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	torn := generate(tornChain, tornSeed)

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var (
		walls, cpus []float64
		allocs      []float64
		traced      usage
		sizeMB      float64
		first       *ingestFiles
		round       int
		untraced    []float64
	)
	minRounds := 1
	if rc.trace {
		minRounds = 2
	}
	start := time.Now()
	for round < minRounds || time.Since(start) < rc.budget {
		dir := filepath.Join(rc.work, fmt.Sprintf("ingest-%d", round))
		// A traced run alternates untraced rounds, the reference its
		// tracing overhead is measured against, with traced ones.
		var rt *tracer
		if round%2 == 1 || !rc.trace {
			rt = tr
		}
		var files *ingestFiles
		u, err := measure(func() error {
			var err error
			files, err = ingest(dir, ch.docs, rt)
			return err
		})
		o.op(fmt.Sprintf("ingest round %d", round), err)
		if err == nil {
			if round == 0 {
				o.check("archive vs truth", verifyArchive(files, ch.truth))
				first = files
			} else {
				o.check("archive vs first round", files.sameAs(first))
			}
			o.attempted += int64(len(ch.docs)) // the appends, on top of the round itself
			if rt != nil || !rc.trace {
				walls = append(walls, u.wall.Seconds())
				cpus = append(cpus, u.cpu.Seconds())
				allocs = append(allocs, float64(u.alloc)/mb)
				traced = traced.add(u)
			} else {
				untraced = append(untraced, u.wall.Seconds())
			}
			sizeMB = float64(files.bytes) / mb
			files.close()
		}
		os.RemoveAll(dir)

		tdir := filepath.Join(rc.work, fmt.Sprintf("torn-%d", round))
		o.op("torn-tail resume", tornTailResume(tdir, torn, tornRecord))
		os.RemoveAll(tdir)
		round++
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no ingest round completed")
	}
	if !rc.trace {
		o.setOp(setups, walls, cpus, allocs, sizeMB)
		return o, nil
	}

	// Per-layer: the codec calls Append makes, timed on their own over
	// the same chain, then the spans of the traced rounds.
	codec := tr.root("core.codec")
	for i, doc := range ch.docs {
		if i > 0 {
			sp := codec.Child("core.DiffDocuments")
			core.DiffDocuments(ch.docs[i-1], doc)
			sp.End()
		}
		sp := codec.Child("core.StreamDocument")
		err := core.StreamDocument(io.Discard, doc)
		sp.End()
		o.check("encode", err)
	}
	codec.End()
	rounds := float64(len(walls))
	o.set("core.delta_s", "s", tr.total("core.DiffDocuments"))
	o.set("core.encode_s", "s", tr.total("core.StreamDocument"))
	o.set("archive.append_s", "s", tr.total("archive.Append")/rounds)
	o.set("archive.stored_mb", "MB", float64(first.stored)/mb)
	o.set("query.build_s", "s", tr.total("query.Build")/rounds)
	o.set("query.index_mb", "MB", float64(first.index)/mb)
	o.setRuntime(traced)
	// Every layer span runs sequentially inside its round or the codec
	// pass, so their sum over the parents' wall time is the coverage.
	covered := 0.0
	for _, n := range []string{"archive.Append", "archive.Open", "query.Build", "query.Open", "core.DiffDocuments", "core.StreamDocument"} {
		covered += tr.total(n)
	}
	o.set("trace.coverage", "share", covered/(tr.total("ingest.round")+tr.total("core.codec")))
	o.set("trace.overhead", "share", median(walls)/median(untraced)-1)
	return o, tr.write(rc.traceTo)
}

// ingestFiles is one ingested archive: its reopened handles plus what it
// occupies on disk.
type ingestFiles struct {
	arch   *archive.Archive
	ix     *query.Index
	stored int64 // day files as appended
	index  int64 // timeline.idx
	bytes  int64 // every file of the archive directory
	crcs   []uint32
	fp     string
}

func (f *ingestFiles) close() { f.ix.Close() }

// sameAs reports whether two rounds ingested identical archives: the
// same per-day checksums and the same index fingerprint.
func (f *ingestFiles) sameAs(g *ingestFiles) error {
	if !slices.Equal(f.crcs, g.crcs) || f.fp != g.fp || f.bytes != g.bytes {
		return fmt.Errorf("round differs from the checked first round (fingerprint %s vs %s, %d vs %d bytes)",
			f.fp, g.fp, f.bytes, g.bytes)
	}
	return nil
}

// ingest appends docs to a fresh archive at dir, builds its timeline
// index and reopens both — the timed operation of archive-ingest.
func ingest(dir string, docs []*core.Document, tr *tracer) (*ingestFiles, error) {
	root := tr.root("ingest.round")
	defer root.End()
	w, err := archive.Create(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	for day, doc := range docs {
		sp := root.Child("archive.Append")
		err := w.Append(day, doc)
		sp.End()
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	_, stored, _ := w.AppendStats()
	if err := w.Close(); err != nil {
		return nil, err
	}
	sp := root.Child("archive.Open")
	a, err := archive.Open(dir)
	sp.End()
	if err != nil {
		return nil, err
	}
	idxPath := filepath.Join(dir, query.IndexFileName)
	sp = root.Child("query.Build")
	br, err := query.Build(a, idxPath)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("archive.Open")
	a, err = archive.Open(dir)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("query.Open")
	ix, err := query.Open(idxPath)
	sp.End()
	if err != nil {
		return nil, err
	}
	f := &ingestFiles{arch: a, ix: ix, stored: stored, index: br.Bytes, fp: ix.Fingerprint()}
	for _, rec := range a.Records() {
		f.crcs = append(f.crcs, rec.CRC)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		ix.Close()
		return nil, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			ix.Close()
			return nil, err
		}
		f.bytes += info.Size()
	}
	return f, nil
}

// verifyArchive checks every decoded day, every prefix timeline and the
// aggregate series against the generator's truth.
func verifyArchive(f *ingestFiles, t *truth) error {
	days := f.arch.Days("ipv4")
	if !slices.Equal(days, t.days) {
		return fmt.Errorf("archive holds days %v, truth %v", days, t.days)
	}
	for pos, day := range days {
		doc, err := f.arch.Document("ipv4", day)
		if err != nil {
			return err
		}
		if err := t.checkDocument(pos, doc); err != nil {
			return err
		}
	}
	seen := t.seen()
	if got := f.ix.Prefixes("ipv4"); len(got) != len(seen) {
		return fmt.Errorf("index holds %d prefix timelines, truth %d", len(got), len(seen))
	}
	for _, p := range seen {
		tl, err := f.ix.Timeline("ipv4", p)
		if err != nil {
			return err
		}
		if err := t.checkTimeline(tl); err != nil {
			return err
		}
	}
	pts, err := f.ix.Series("ipv4")
	if err != nil {
		return err
	}
	return t.checkSeries(pts)
}

// Torn-tail resume: commit tornCommit days, leave a torn final index
// record (tail) as a crash mid-append would, resume with archive.OpenWriter and
// append the remaining days. The operation passes when the reopened
// archive holds exactly the committed prefix plus the resumed days, each
// byte-identical to its source document.
const tornCommit = 5

// tornRecord is the first bytes of day tornCommit's index line, cut
// before its newline.
const tornRecord = `{"seq":5,"day":5,"family":"ipv4","date":"2024-`

func tornTailResume(dir string, ch *chain, tail string) error {
	w, err := archive.Create(dir, archive.Options{})
	if err != nil {
		return err
	}
	for day, doc := range ch.docs[:tornCommit] {
		if err := w.Append(day, doc); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	idx, err := os.OpenFile(filepath.Join(dir, archive.IndexFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := idx.WriteString(tail); err != nil {
		idx.Close()
		return err
	}
	if err := idx.Close(); err != nil {
		return err
	}

	w, err = archive.OpenWriter(dir, archive.Options{})
	if err != nil {
		return fmt.Errorf("resuming after a torn tail: %w", err)
	}
	for day := tornCommit; day < len(ch.docs); day++ {
		if err := w.Append(day, ch.docs[day]); err != nil {
			w.Close()
			return fmt.Errorf("appending day %d after resume: %w", day, err)
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	a, err := archive.Open(dir)
	if err != nil {
		return fmt.Errorf("reopening after resume: %w", err)
	}
	if days := a.Days("ipv4"); len(days) != len(ch.docs) {
		return fmt.Errorf("reopened archive holds days %v, want 0..%d", days, len(ch.docs)-1)
	}
	for day, want := range ch.docs {
		got, err := a.Document("ipv4", day)
		if err != nil {
			return err
		}
		var gb, wb bytes.Buffer
		if err := core.StreamDocument(&gb, got); err != nil {
			return err
		}
		if err := core.StreamDocument(&wb, want); err != nil {
			return err
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			return fmt.Errorf("day %d differs from the document appended", day)
		}
	}
	return nil
}
