package control

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/onelab/umtslab/internal/bufpool"
	"github.com/onelab/umtslab/internal/testbed"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite the golden report digests of the selected set from the current program")
	goldenFull   = flag.Bool("golden.full", false, "check the full-length golden set (make golden) instead of the short one")
)

// goldenCase is one fixed scenario with a known report. Multi-cell
// specs are also run on one shard; poolOff cases also run with buffer
// pooling disabled.
type goldenCase struct {
	name    string
	spec    string
	poolOff bool
}

// goldenShort runs on every `go test`: short copies of the runs the
// paper's evaluation and bench/ make.
var goldenShort = []goldenCase{
	{name: "voip_umts", spec: `{"seed":1,"workload":"voip","duration":"30s"}`, poolOff: true},
	{name: "voip_eth", spec: `{"seed":1,"workload":"voip","path":"ethernet","duration":"30s"}`},
	{name: "cbr1m_umts", spec: `{"seed":1,"workload":"cbr1m","duration":"60s"}`},
	{name: "cbr1m_eth", spec: `{"seed":1,"workload":"cbr1m","path":"ethernet","duration":"30s"}`},
	{name: "voip_flaky_heal", spec: `{"seed":1,"workload":"voip","reps":4,"duration":"30s","fault_profile":"flaky","self_heal":true}`},
	{name: "voip_stream", spec: `{"seed":1,"workload":"voip","duration":"30s","analysis":{"mode":"stream"}}`},
	{name: "voip_stream_exact", spec: `{"seed":1,"workload":"voip","duration":"30s","analysis":{"mode":"stream","exact":true}}`},
	{name: "voip_stream_only", spec: `{"seed":1,"workload":"voip","duration":"30s","analysis":{"mode":"stream-only"}}`},
	{name: "multicell_2x2", spec: `{"seed":1,"cells":2,"terminals":2,"duration":"10s"}`},
	{name: "fleet_idle_small", spec: `{"seed":1,"cells":2,"terminals":1,"idle_terminals":100,"population":10,"duration":"10s"}`},
	{name: "multicell_2x2_flaky_heal", spec: `{"seed":1,"cells":2,"terminals":2,"duration":"30s","fault_profile":"flaky","self_heal":true}`},
}

// goldenFullSet is `make golden`: the paper cells at the paper's 20
// repetitions, the 4x16 multi-cell run and the 100k-terminal fleet
// spec of bench/.
var goldenFullSet = []goldenCase{
	{name: "voip20_umts", spec: `{"seed":1,"workload":"voip","reps":20}`, poolOff: true},
	{name: "voip20_eth", spec: `{"seed":1,"workload":"voip","reps":20,"path":"ethernet"}`},
	{name: "cbr1m20_umts", spec: `{"seed":1,"workload":"cbr1m","reps":20}`},
	{name: "cbr1m20_eth", spec: `{"seed":1,"workload":"cbr1m","reps":20,"path":"ethernet"}`},
	{name: "multicell_4x16", spec: `{"seed":1,"cells":4,"terminals":16,"duration":"120s"}`},
	{name: "fleet_idle", spec: `{"seed":1,"cells":4,"terminals":2,"idle_terminals":24000,"population":1000,"duration":"30s"}`},
}

// goldenEntry is one committed digest: the spec it was taken from and
// the SHA-256 of that spec's EncodeReport bytes.
type goldenEntry struct {
	Spec   string `json:"spec"`
	SHA256 string `json:"sha256"`
}

// TestGoldenReports pins the bytes of every report in the golden set: a
// change that moves any of them is a result change, and has to
// regenerate the digests with -update and say which moved and why.
//
// Each digest must hold however the run is executed: on the default
// shard count and on one shard, with buffer pooling disabled (the
// allocating reference), and when the spec is submitted through the
// server's HTTP handler.
//
// The digests are keyed by GOARCH (testdata/golden/<GOARCH>.json; amd64
// is committed). Go may fuse x*y+z into one FMA instruction on arm64,
// ppc64 and s390x but not on amd64, so the last bits of a float in a
// report can differ between architectures. Keying the digests is
// cheaper than writing the report arithmetic FMA-proof. On an
// architecture with no digest file the test skips; -update creates one.
//
// Plain `go test` checks the short set in a few seconds; -golden.full
// checks the full-length set (`make golden`).
func TestGoldenReports(t *testing.T) {
	set, prefix := goldenShort, "short/"
	if *goldenFull {
		set, prefix = goldenFullSet, "full/"
	}
	file := filepath.Join("testdata", "golden", runtime.GOARCH+".json")
	want := map[string]goldenEntry{}
	raw, err := os.ReadFile(file)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	case !os.IsNotExist(err):
		t.Fatal(err)
	case !*updateGolden:
		t.Skipf("no golden digests for GOARCH=%s; create them with -update", runtime.GOARCH)
	}

	got := map[string]string{}
	for _, c := range set {
		t.Run(c.name, func(t *testing.T) {
			digest := goldenDigest(t, c.spec, nil)
			got[c.name] = digest
			if !*updateGolden {
				checkGolden(t, want, prefix+c.name, c.spec, digest)
			}
			for _, v := range goldenVariants(t, c) {
				if d := goldenDigest(t, c.spec, v.apply); d != digest {
					t.Errorf("%s: report digest %s differs from the default run's %s", v.name, d, digest)
				}
			}
		})
	}

	// Serve mode: the same specs through the HTTP handler must return
	// the same bytes.
	_, ts := newTestService(t, Config{Queue: len(set)})
	ids := make([]string, len(set))
	for i, c := range set {
		ids[i] = submit(t, ts, c.spec)
	}
	for i, c := range set {
		if st := waitState(t, ts, ids[i]); st.State != StateDone {
			t.Fatalf("%s: served job ended %s (%s)", c.name, st.State, st.Error)
		}
		if d := sha(getResult(t, ts, ids[i])); d != got[c.name] {
			t.Errorf("%s: served result digest %s differs from the direct run's %s", c.name, d, got[c.name])
		}
	}

	if *updateGolden && !t.Failed() {
		for _, c := range set {
			want[prefix+c.name] = goldenEntry{Spec: c.spec, SHA256: got[c.name]}
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func checkGolden(t *testing.T, want map[string]goldenEntry, key, spec, digest string) {
	t.Helper()
	w, ok := want[key]
	switch {
	case !ok:
		t.Errorf("%s has no committed digest; add it with -update", key)
	case w.Spec != spec:
		t.Errorf("%s: spec changed from %s; regenerate its digest with -update", key, w.Spec)
	case w.SHA256 != digest:
		t.Errorf("%s: report digest %s, committed %s — the result changed", key, digest, w.SHA256)
	}
}

// goldenVariant is one other way to execute a golden case that must not
// change its report.
type goldenVariant struct {
	name  string
	apply func(*testbed.Spec)
}

func goldenVariants(t *testing.T, c goldenCase) []goldenVariant {
	t.Helper()
	var vs []goldenVariant
	if spec, err := testbed.ParseSpec([]byte(c.spec)); err != nil {
		t.Fatal(err)
	} else if spec.Cells > 0 {
		vs = append(vs,
			goldenVariant{"shards=1", func(s *testbed.Spec) { s.Shards = 1 }},
		)
	}
	if c.poolOff {
		vs = append(vs, goldenVariant{"pool off", func(*testbed.Spec) { bufpool.SetDisabled(true) }})
	}
	return vs
}

// goldenDigest runs the spec directly, as the one-shot CLI does, with
// apply's change, and returns the SHA-256 of its encoded report.
func goldenDigest(t *testing.T, doc string, apply func(*testbed.Spec)) string {
	t.Helper()
	spec, err := testbed.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if apply != nil {
		defer bufpool.SetDisabled(false)
		apply(spec)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return sha(enc)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
