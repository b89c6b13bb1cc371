package tracedir

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/dcsim/model"
)

// memFetcher is an in-memory ChunkFetcher serving one manifest body and
// no chunks.
type memFetcher []byte

func (f memFetcher) Manifest(context.Context) ([]byte, error) { return f, nil }

func (memFetcher) Chunk(context.Context, string) ([]byte, error) { return nil, os.ErrNotExist }

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
		m, err := ReadManifestFrom(context.Background(), memFetcher(data))
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
