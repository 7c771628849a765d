package segment

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/rdf"
)

// Fuzz targets for the three decoders that read hostile bytes: run
// images (FuzzSegmentOpen), write-ahead logs (FuzzWALReplay) and the
// AWAL1 record stream cluster peers ship over the wire
// (FuzzDecodeLogRecords). The invariant under fuzz: corrupt input must
// produce an error (or, for the WAL, a shorter committed prefix) —
// never a panic, never an allocation proportional to a declared but
// absent payload. Seeds are real encodings plus deterministic
// truncations and bit-flips from the faults injector.

// seedRunImage builds a small real run image for the corpus.
func seedRunImage(tb testing.TB) []byte {
	tb.Helper()
	adds := nTriples(12)
	adds = append(adds, litTri("s", "label", "Leaf Area Index"))
	img, err := encodeRun(adds, []rdf.Triple{tri("dead", "p", "o")})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// seedWALImage builds a small real WAL image for the corpus.
func seedWALImage(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	e := mustOpen(tb, dir, Options{})
	mustAdd(tb, e, nTriples(6)...)
	if _, err := e.Delete(tri("s0", "p0", "o0")); err != nil {
		tb.Fatal(err)
	}
	abandon(e)
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzSegmentOpen(f *testing.F) {
	img := seedRunImage(f)
	f.Add(img)
	for _, v := range faults.Truncations(img, 7, 32) {
		f.Add(v)
	}
	// Hostile header: a footer declaring huge sections over a tiny file.
	hostile := append([]byte(runMagic), make([]byte, footerSize)...)
	f.Add(hostile)
	f.Add([]byte(runMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenRun(path)
		if err != nil {
			return // corrupt input correctly rejected
		}
		defer r.close()
		// Footer validated: every lazy section load must either verify
		// or fail cleanly, and decoded rows must round-trip through the
		// encoder to an identical image (stability).
		var live, tombs []rdf.Triple
		merr := r.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple, tomb bool) {
			if tomb {
				tombs = append(tombs, tr)
			} else {
				live = append(live, tr)
			}
		})
		if merr != nil {
			return // CRC or structural check caught deeper corruption
		}
		if _, err := r.cardinality(rdf.Term{}, rdf.Term{}, rdf.Term{}); err != nil {
			t.Fatalf("cardinality failed after successful full match: %v", err)
		}
		img2, err := encodeRun(live, tombs)
		if err != nil {
			t.Fatalf("re-encode of decoded run failed: %v", err)
		}
		path2 := filepath.Join(t.TempDir(), "rt.seg")
		if err := os.WriteFile(path2, img2, 0o644); err != nil {
			t.Skip()
		}
		r2, err := OpenRun(path2)
		if err != nil {
			t.Fatalf("round-tripped run does not open: %v", err)
		}
		defer r2.close()
		n := 0
		if err := r2.match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple, bool) { n++ }); err != nil {
			t.Fatalf("round-tripped run does not match: %v", err)
		}
		if n != len(live)+len(tombs) {
			t.Fatalf("round trip changed row count: %d vs %d", n, len(live)+len(tombs))
		}
	})
}

func FuzzWALReplay(f *testing.F) {
	img := seedWALImage(f)
	f.Add(img)
	for _, v := range faults.Truncations(img, 11, 32) {
		f.Add(v)
	}
	// Hostile: a frame declaring a huge payload on a short file must
	// not allocate gigabytes.
	huge := append([]byte(walMagic), 0x3f, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(huge)
	f.Add([]byte(walMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, good, err := replayWAL(data)
		if err != nil {
			return // not a WAL at all (bad magic / short header)
		}
		if good < int64(len(walMagic)) || good > int64(len(data)) {
			t.Fatalf("committed boundary %d outside [header, len=%d]", good, len(data))
		}
		// Replay of the committed prefix must be deterministic: cutting
		// the file at the boundary reproduces the exact same ops.
		ops2, good2, err := replayWAL(data[:good])
		if err != nil {
			t.Fatalf("replay of committed prefix failed: %v", err)
		}
		if good2 != good || len(ops2) != len(ops) {
			t.Fatalf("replay not stable: %d/%d ops, %d/%d boundary", len(ops), len(ops2), good, good2)
		}
		for _, op := range ops {
			if op.op != opAdd && op.op != opDelete {
				t.Fatalf("invalid op %d leaked through replay", op.op)
			}
		}
		// The real open path (with tail repair) must agree with the pure
		// decoder and leave a reopenable log behind.
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		w, ops3, discarded, err := openWAL(path, nil)
		if err != nil {
			return // header rejected
		}
		defer w.close()
		if len(ops3) != len(ops) {
			t.Fatalf("openWAL replayed %d ops, replayWAL %d", len(ops3), len(ops))
		}
		if discarded != int64(len(data))-good {
			t.Fatalf("discarded %d, want %d", discarded, int64(len(data))-good)
		}
		if err := w.append(opAdd, []rdf.Triple{tri("post", "fuzz", "append")}); err != nil {
			t.Fatalf("append after repair failed: %v", err)
		}
	})
}

// wireFrame frames a raw payload the way encodeFrames does: length,
// CRC, payload. Hostile seeds use it to build frames whose CRC is
// valid, so the decoder's structural checks are what rejects them.
func wireFrame(payload []byte) []byte {
	frame := appendU32(nil, uint32(len(payload)))
	frame = appendU32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// wirePayload builds a record payload: op byte (with the chunk-group
// "more" flag when more is set), triple count, triples.
func wirePayload(op byte, more bool, triples ...rdf.Triple) []byte {
	if more {
		op |= walMore
	}
	p := appendU32([]byte{op}, uint32(len(triples)))
	for _, t := range triples {
		p = appendTriple(p, t)
	}
	return p
}

// seedLogRecords encodes a small record stream for the corpus: adds,
// a delete, an empty batch, and a valid-time, language-tagged literal.
func seedLogRecords(tb testing.TB) []byte {
	tb.Helper()
	vt := rdf.NewTriple(rdf.NewIRI("http://ex/obs"), rdf.NewIRI("http://ex/label"), rdf.NewLangLiteral("feuille", "fr"))
	vt.ValidFrom = time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	vt.ValidTo = vt.ValidFrom.Add(24 * time.Hour)
	img, err := AppendLogRecords(nil, []LogRecord{
		{Triples: nTriples(5)},
		{Delete: true, Triples: nTriples(2)},
		{},
		{Triples: []rdf.Triple{vt, litTri("s", "label", "Leaf Area Index")}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// seedChunkGroup encodes one batch as a multi-frame chunk group by
// shrinking the writer's chunk cap while it encodes.
func seedChunkGroup(tb testing.TB) []byte {
	tb.Helper()
	old := walChunkPayload
	walChunkPayload = 256
	defer func() { walChunkPayload = old }()
	img, err := EncodeLogRecord(LogRecord{Triples: nTriples(30)})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// hostileLogRecord is a record stream the wire decoder must refuse,
// built to defeat one check.
type hostileLogRecord struct {
	name string
	data []byte
}

func hostileLogRecords(tb testing.TB) []hostileLogRecord {
	tb.Helper()
	group := seedChunkGroup(tb)
	firstFrame := group[:8+int(binary.BigEndian.Uint32(group))]
	one := tri("s", "p", "o")
	return []hostileLogRecord{
		// A header declaring the largest legal frame over 4 bytes.
		{"huge_frame_length", append(appendU32(appendU32(nil, maxWALRecord), 0), "abcd"...)},
		// A valid frame whose payload declares 2^30 triples and holds none.
		{"huge_triple_count", wireFrame(appendU32([]byte{opAdd}, maxTriples))},
		{"missing_final_frame", firstFrame},
		{"op_switch_mid_group", append(wireFrame(wirePayload(opAdd, true, one)),
			wireFrame(wirePayload(opDelete, false, one))...)},
		// The same switch after an empty first chunk.
		{"op_switch_after_empty_chunk", append(wireFrame(wirePayload(opAdd, true)),
			wireFrame(wirePayload(opDelete, false, one))...)},
		{"empty_unfinished_group", wireFrame(wirePayload(opDelete, true))},
	}
}

// decodeAllocBytes returns the bytes DecodeLogRecords allocates on
// data (the smaller of two measurements, so an allocation by some
// other goroutine cannot fail the check on its own).
func decodeAllocBytes(data []byte) uint64 {
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = DecodeLogRecords(data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	return min(measure(), measure())
}

// decodeAllocBudget bounds what decoding n input bytes may allocate:
// the decoded triples and strings (a triple encodes in at least
// minTripleBytes, so a few hundred bytes of rdf.Triple per input byte
// at most, slice growth included) plus fixed overhead.
func decodeAllocBudget(n int) uint64 { return 64<<10 + 256*uint64(n) }

func FuzzDecodeLogRecords(f *testing.F) {
	for _, img := range [][]byte{seedLogRecords(f), seedChunkGroup(f)} {
		f.Add(img)
		for _, v := range faults.Truncations(img, 2019, 24) {
			f.Add(v)
		}
	}
	for _, h := range hostileLogRecords(f) {
		f.Add(h.data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, limit := decodeAllocBytes(data), decodeAllocBudget(len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, limit)
		}
		recs, err := DecodeLogRecords(data)
		if err != nil {
			return // corrupt, torn or unfinished input correctly rejected
		}
		img, err := AppendLogRecords(nil, recs)
		if err != nil {
			t.Fatalf("accepted records failed to re-encode: %v", err)
		}
		back, err := DecodeLogRecords(img)
		if err != nil {
			t.Fatalf("re-encoded records failed to decode: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip changed record count: %d vs %d", len(back), len(recs))
		}
		for i, rec := range recs {
			if back[i].Delete != rec.Delete || len(back[i].Triples) != len(rec.Triples) {
				t.Fatalf("record %d changed across the round trip", i)
			}
			for j, tr := range rec.Triples {
				if tripleKey(back[i].Triples[j]) != tripleKey(tr) {
					t.Fatalf("record %d triple %d: %v became %v", i, j, tr, back[i].Triples[j])
				}
			}
		}
	})
}
