package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command itself:
// TestCLIGoldenOutput re-executes the binary with it to drive main()
// exactly as a user's shell would, flags and stdout included.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliGolden pins the SHA-256 of the command's stdout for short runs of
// each mode: the paper figures with and without repetitions, a fault
// profile with self-healing, an old analysis name, and the multi-cell
// run with a fault profile and with an idle fleet, populations and one
// shard. Any change to what the command prints, or to the runs behind
// it, moves a digest.
var cliGolden = []struct {
	args   string
	digest string
}{
	{"-dur 6s -summary-only", "3be76707fefa8ee405c940e6e9300ffbefd40c5ebdef5eca3853ac6365e5e5d2"},
	{"-figure 4 -dur 6s -reps 2 -fault-profile flaky -self-heal -every 10", "bee8967776b4ad3c264e355b7b3203e8a559c3c337c4cdd434d3e7885f70f7ad"},
	{"-figure 2 -dur 6s -reps 2 -analysis stream -summary-only", "ea7b0d6541f11c314f32de674655219205eac795b86650ba4e26fc2f02006744"},
	{"-cells 2 -terminals 2 -dur 4s -fault-profile drops", "6530faa2304c786e552f7efa1ba1e1eb467dcc1c8cae912b280824437d3aada8"},
	{"-cells 2 -dur 4s -fleet 50 -population 20 -shards 1", "539219c4eab96a68efc8b64ebefc7dbefff4f0038be3a85655563f1c27f651e3"},
}

// TestCLIGoldenOutput runs each invocation of cliGolden as a child
// process and compares the digest of its stdout. Like the report
// digests of internal/control, the digests are recorded on amd64 only.
func TestCLIGoldenOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, c := range cliGolden {
		cmd := exec.Command(os.Args[0], strings.Fields(c.args)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("experiments %s: %v\n%s", c.args, err, stderr.String())
			continue
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("experiments %s: stdout digest %s, want %s\n%s", c.args, got, c.digest, out)
		}
	}
}

// TestCLIRejectsFigureFlagsWithCells: a flag that only the figure mode
// reads exits 2 with -cells, naming the flag, instead of being ignored.
func TestCLIRejectsFigureFlagsWithCells(t *testing.T) {
	for _, arg := range []string{"-figure 4", "-reps 5", "-every 2", "-csv " + t.TempDir(), "-summary-only", "-workers 2"} {
		args := append([]string{"-cells", "2", "-dur", "1s"}, strings.Fields(arg)...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		flagName := strings.Fields(arg)[0]
		if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(stderr.String(), flagName) {
			t.Errorf("experiments %s: exit %d (%v), stderr %q; want exit 2 naming %s", strings.Join(args, " "), code, err, stderr.String(), flagName)
		}
	}
}

// TestCLISpecExitCodes: -spec exits 2 for a document it refuses and for
// a flag that sets a Spec field beside it, naming that flag, and 0 for
// a document that runs; -metrics exits 2 beside -spec and -serve, and
// so does every other flag that -serve does not read.
func TestCLISpecExitCodes(t *testing.T) {
	for _, c := range []struct {
		args, stdin string
		code        int
		stderr      string // substring the error must contain
	}{
		{"-spec -", `{"cells":2,"path":"umts"}`, 2, "spec.path"},
		{"-spec - -cells 2", `{"duration":"1s"}`, 2, "-cells"},
		{"-spec - -metrics m.json", `{"duration":"1s"}`, 2, "-metrics"},
		{"-serve 127.0.0.1:0 -metrics m.json", "", 2, "-metrics"},
		{"-serve 127.0.0.1:0 -seed 7", "", 2, "-seed"},
		{"-serve 127.0.0.1:0 -dur 5s", "", 2, "-dur"},
		{"-serve 127.0.0.1:0 -analysis stream-only", "", 2, "-analysis"},
		{"-serve 127.0.0.1:0 -figure 2", "", 2, "-figure"},
		{"-serve 127.0.0.1:0 -cells 2", "", 2, "-cells"},
		{"-serve 127.0.0.1:0 -spec -", `{"duration":"1s"}`, 2, "-spec"},
		{"-spec -", `{"duration":"1s"}`, 0, ""},
	} {
		cmd := exec.Command(os.Args[0], strings.Fields(c.args)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		cmd.Stdin = strings.NewReader(c.stdin)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("experiments %s < %s: exit %d (%v), stderr %q; want exit %d naming %q",
				c.args, c.stdin, code, err, stderr.String(), c.code, c.stderr)
		}
	}
}
