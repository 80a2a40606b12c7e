package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hetcc/internal/coherence"
)

var update = flag.Bool("update", false, "rewrite the golden protocheck output files")

// TestOutputGolden pins the model-check output of protocheck's default run
// (the reduction and defect matrices), of a 4-master -protocols check and
// the -dot state-machine digraphs of MESI and Dragon to committed text
// files.  Regenerate with
// `go test ./cmd/protocheck -run TestOutputGolden -update` only when a
// behaviour change is intended.
func TestOutputGolden(t *testing.T) {
	cases := []struct {
		file string
		run  func(*bytes.Buffer) error
	}{
		{"default.golden", func(b *bytes.Buffer) error { return pairMatrices(b) }},
		{"protocols_MEI_MSI_MESI_MOESI.golden", func(b *bytes.Buffer) error {
			return check(b, []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI})
		}},
		{"dot_MESI.golden", func(b *bytes.Buffer) error { return dot(b, "MESI") }},
		{"dot_Dragon.golden", func(b *bytes.Buffer) error { return dot(b, "Dragon") }},
	}
	for _, c := range cases {
		var got bytes.Buffer
		if err := c.run(&got); err != nil {
			t.Fatalf("%s: %v\n%s", c.file, err, got.String())
		}
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs from golden\ngot:\n%s\nwant:\n%s", c.file, got.String(), want)
		}
	}
}
