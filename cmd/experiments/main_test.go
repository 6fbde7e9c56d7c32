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
// profile with self-healing, the streaming analysis, and the multi-cell
// run with a fault profile and with an idle fleet, populations, one
// shard and the dynamic policy. Any change to what the command prints,
// or to the runs behind it, moves a digest.
var cliGolden = []struct {
	args   string
	digest string
}{
	{"-dur 6s -summary-only", "3be76707fefa8ee405c940e6e9300ffbefd40c5ebdef5eca3853ac6365e5e5d2"},
	{"-figure 4 -dur 6s -reps 2 -fault-profile flaky -self-heal -every 10", "bee8967776b4ad3c264e355b7b3203e8a559c3c337c4cdd434d3e7885f70f7ad"},
	{"-figure 2 -dur 6s -reps 2 -analysis stream -summary-only", "ea7b0d6541f11c314f32de674655219205eac795b86650ba4e26fc2f02006744"},
	{"-cells 2 -terminals 2 -dur 4s -fault-profile drops", "a2bb710db89e94e5f6d8c6e6af67d8af2481d75cc3d9d6a607a40365e5fe03a4"},
	{"-cells 2 -dur 4s -fleet 50 -population 20 -shards 1 -shard-policy dynamic", "1b6f52cb691dd84c6b3e63469cad9df76c0174cee7f27af4f6b329f6905c06af"},
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
