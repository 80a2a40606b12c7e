package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hetcc/internal/coherence"
)

var updateCensus = flag.Bool("update", false, "rewrite the golden census-digest file")

const censusGolden = "testdata/census_digests.json"

var allModes = []Mode{ModeWrapped, ModeUnwired, ModeNoSnoop}

// multisets returns every protocol multiset of size lo..hi over allKinds,
// each in non-decreasing allKinds order.
func multisets(lo, hi int) [][]coherence.Kind {
	var out [][]coherence.Kind
	var grow func(prefix []coherence.Kind, from int)
	grow = func(prefix []coherence.Kind, from int) {
		if len(prefix) >= lo {
			out = append(out, append([]coherence.Kind(nil), prefix...))
		}
		if len(prefix) == hi {
			return
		}
		for i := from; i < len(allKinds); i++ {
			grow(append(prefix, allKinds[i]), i)
		}
	}
	grow(nil, 0)
	return out
}

func comboName(kinds []coherence.Kind, mode Mode) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, "+") + "/" + mode.String()
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// censusDigests explores every 1–3-master multiset under every mode and
// digests the JSON of each Result (or the error text of a rejected mix),
// plus the graph dumps of two configurations, so the golden pins every
// output byte: counts, reachable sets, paths, traces and edge labels.
func censusDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, kinds := range multisets(1, MaxMasters) {
		for _, mode := range allModes {
			res, err := Explore(Config{Protocols: kinds, Mode: mode})
			if err != nil {
				out[comboName(kinds, mode)] = sha([]byte(err.Error()))
				continue
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", comboName(kinds, mode), err)
			}
			out[comboName(kinds, mode)] = sha(raw)
		}
	}
	for _, g := range []struct {
		kinds []coherence.Kind
		mode  Mode
	}{
		{[]coherence.Kind{coherence.MEI, coherence.None}, ModeWrapped},
		{[]coherence.Kind{coherence.MESI, coherence.MOESI}, ModeUnwired},
	} {
		var buf bytes.Buffer
		if _, err := Explore(Config{Protocols: g.kinds, Mode: g.mode, Graph: &buf}); err != nil {
			t.Fatalf("graph %s: %v", comboName(g.kinds, g.mode), err)
		}
		out["graph:"+comboName(g.kinds, g.mode)] = sha(buf.Bytes())
	}
	return out
}

// TestCensusGolden pins the explorer's complete output for every explored
// configuration to committed digests, so a change to the search (ordering,
// deduplication, label rendering) that alters any result byte fails here.
// Regenerate with `go test ./internal/explore -run TestCensusGolden -update`
// only when a behaviour change is intended.
func TestCensusGolden(t *testing.T) {
	got := censusDigests(t)
	if *updateCensus {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(censusGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(censusGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), censusGolden)
		return
	}
	raw, err := os.ReadFile(censusGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, golden %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d configurations explored, golden has %d", len(got), len(want))
	}
}
