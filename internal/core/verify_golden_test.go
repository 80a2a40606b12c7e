package core

import (
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

var updateVerify = flag.Bool("update", false, "rewrite the golden verify-digest file")

const verifyGolden = "testdata/verify_digests.json"

var verifyKinds = []coherence.Kind{
	coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI, coherence.Dragon,
}

// kindMultisets returns every multiset of size lo..hi over kinds, each in
// non-decreasing kinds order.
func kindMultisets(kinds []coherence.Kind, lo, hi int) [][]coherence.Kind {
	var out [][]coherence.Kind
	var grow func(prefix []coherence.Kind, from int)
	grow = func(prefix []coherence.Kind, from int) {
		if len(prefix) >= lo {
			out = append(out, append([]coherence.Kind(nil), prefix...))
		}
		if len(prefix) == hi {
			return
		}
		for i := from; i < len(kinds); i++ {
			grow(append(prefix, kinds[i]), i)
		}
	}
	grow(nil, 0)
	return out
}

func kindsName(kinds []coherence.Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, "+")
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verifyDigests runs Verify on every 1–4-master multiset of the coherent
// protocols under Reduce's policies (digesting the Reduce error text of a
// rejected mix) and on every ordered non-Dragon pair under the passthrough
// and unwired policies, digesting the JSON of each VerifyResult (or its
// error text).
func verifyDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	record := func(name string, res VerifyResult, err error) {
		if err != nil {
			out[name] = digest([]byte(err.Error()))
			return
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = digest(raw)
	}
	for _, kinds := range kindMultisets(verifyKinds, 1, ModelMasters) {
		name := kindsName(kinds) + "/reduced"
		integ, err := Reduce(kinds)
		if err != nil {
			out[name] = digest([]byte(err.Error()))
			continue
		}
		res, err := Verify(kinds, integ.Policies, integ.Effective)
		record(name, res, err)
	}
	for _, a := range verifyKinds[:4] {
		for _, b := range verifyKinds[:4] {
			kinds := []coherence.Kind{a, b}
			res, err := Verify(kinds, passthrough(2), a)
			record(kindsName(kinds)+"/passthrough", res, err)
			res, err = Verify(kinds, unwired(2), a)
			record(kindsName(kinds)+"/unwired", res, err)
		}
	}
	return out
}

// TestVerifyGolden pins Verify's complete output — explored counts,
// reachable sets, violations and their witness traces — for every
// configuration above to committed digests.  Regenerate with
// `go test ./internal/core -run TestVerifyGolden -update` only when a
// behaviour change is intended.
func TestVerifyGolden(t *testing.T) {
	got := verifyDigests(t)
	if *updateVerify {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(verifyGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verifyGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), verifyGolden)
		return
	}
	raw, err := os.ReadFile(verifyGolden)
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
		t.Errorf("%d configurations verified, golden has %d", len(got), len(want))
	}
}
