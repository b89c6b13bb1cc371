package tracedir

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/pkg/dcsim/model"
)

// memFetcher is an in-memory ChunkFetcher serving one manifest body and
// the chunks in its map (none when nil).
type memFetcher struct {
	manifest []byte
	chunks   map[string][]byte
}

func (f memFetcher) Manifest(context.Context) ([]byte, error) { return f.manifest, nil }

func (f memFetcher) Chunk(_ context.Context, name string) ([]byte, error) {
	if b, ok := f.chunks[name]; ok {
		return b, nil
	}
	return nil, os.ErrNotExist
}

func (memFetcher) Where(name string) string { return "mem:" + name }

// FuzzReadManifest feeds arbitrary bytes to ReadManifestFrom as a
// recording's manifest.json. It must never panic; every input yields
// either an error or a manifest that validate accepts, and CheckWorkload
// on an accepted manifest must not panic either.
func FuzzReadManifest(f *testing.F) {
	dir := f.TempDir()
	if err := Write(dir, testDataset(5), 2); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	for _, seed := range []string{
		`{}`,
		`{"version":1,"interval":"1h","samples":2,"hours":2,"names":["a"],"files":[{"file":"c.csv","names":["a"]}]}`,
		`{"version":1,"interval":"-1s","samples":2,"hours":2,"names":["a"],"files":[]}`,
		`{"version":1,"interval":"1h","samples":2,"hours":2,"names":["a","a"],"files":[{"file":"../c.csv","names":["a","a"]}]}`,
		`{"version":1,"interval":"1h","samples":2,"hours":2,"names":["a"],"groups":[0,1],"files":[{"file":"c.csv","names":["a"]}]}`,
		`[1,2,3]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifestFrom(context.Background(), memFetcher{manifest: data})
		if err != nil {
			return
		}
		if err := m.validate(); err != nil {
			t.Fatalf("accepted manifest fails validate: %v", err)
		}
		for _, w := range []model.Workload{{}, {VMs: 5, Hours: 2}, {VMs: len(m.Names), Hours: m.Hours}} {
			_ = m.CheckWorkload(w)
		}
	})
}

// FuzzChunk feeds arbitrary bytes as the first chunk CSV of a fixed
// recording (3 VMs, 2 per chunk, 4 samples at 15 min) through OpenFrom and
// Next. It must never panic, and every record emitted before the stream
// ends carries the manifest's name for its position, its sample count and
// its interval; a stream that reaches io.EOF emitted every VM.
func FuzzChunk(f *testing.F) {
	ds := &model.Dataset{}
	for v := 0; v < 3; v++ {
		fine := []float64{float64(v) + 0.5, 1, 2.25, float64(v)}
		ds.Names = append(ds.Names, "vm"+string(rune('a'+v)))
		ds.Group = append(ds.Group, v%2)
		ds.Fine = append(ds.Fine, model.SeriesFromSamples(15*time.Minute, fine))
	}
	dir := f.TempDir()
	if err := Write(dir, ds, 2); err != nil {
		f.Fatal(err)
	}
	fetch := memFetcher{chunks: map[string][]byte{}}
	var err error
	if fetch.manifest, err = os.ReadFile(filepath.Join(dir, ManifestName)); err != nil {
		f.Fatal(err)
	}
	m, err := ReadManifestFrom(context.Background(), fetch)
	if err != nil {
		f.Fatal(err)
	}
	for _, fe := range m.Files {
		if fetch.chunks[fe.File], err = os.ReadFile(filepath.Join(dir, fe.File)); err != nil {
			f.Fatal(err)
		}
	}
	iv, err := m.interval()
	if err != nil {
		f.Fatal(err)
	}
	fuzzed := m.Files[0].File
	orig := fetch.chunks[fuzzed]
	f.Add(orig)
	f.Add(orig[:len(orig)/2])
	f.Add(bytes.Replace(orig, []byte("vmb"), []byte("vmz"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := map[string][]byte{}
		for k, v := range fetch.chunks {
			chunks[k] = v
		}
		chunks[fuzzed] = data
		r, err := OpenFrom(context.Background(), memFetcher{manifest: fetch.manifest, chunks: chunks}, model.Workload{})
		if err != nil {
			t.Fatalf("OpenFrom over a valid manifest: %v", err)
		}
		defer r.Close()
		for i := 0; ; i++ {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				if i != len(m.Names) {
					t.Fatalf("stream ended after %d records, manifest lists %d", i, len(m.Names))
				}
				return
			}
			if err != nil {
				return
			}
			if i >= len(m.Names) {
				t.Fatalf("record %d beyond the manifest's %d VMs", i, len(m.Names))
			}
			if rec.Name != m.Names[i] || rec.Fine == nil ||
				rec.Fine.Len() != m.Samples || rec.Fine.Interval() != iv {
				t.Fatalf("record %d: name %q, want %q; want %d samples at %v, got %+v",
					i, rec.Name, m.Names[i], m.Samples, iv, rec.Fine)
			}
		}
	})
}
