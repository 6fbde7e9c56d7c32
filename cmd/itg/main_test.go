package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command itself:
// the tests re-execute the binary with it to drive main() exactly as a
// user's shell would, flags and stdout included.
const runMainEnv = "ITG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns
// its stdout; a failed run fails the test.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("itg %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// itgArgs is a lossy, jittered, queueing flow of Pareto-sized packets,
// with its RTT series.
var itgArgs = []string{"-idt", "exponential:0.01", "-ps", "pareto:1.5,400", "-loss", "0.01", "-jitter", "2ms", "-dur", "10s", "-series", "rtt"}

// TestGoldenOutput pins the SHA-256 of a live run's stdout. Like the
// other stdout digests of the repository, it is recorded on amd64 only.
func TestGoldenOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	const want = "da0fac11addbf773de61a55775731b7fbd2e88b8a5e32a6c183d90e486eab840"
	out := runMain(t, itgArgs...)
	if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want {
		t.Errorf("stdout digest %x, want %s\n%s", sum, want, out)
	}
}

// TestDecodeSavedLogsMatchesLive is the paper's ITGDec workflow: the
// logs that -savelogs writes, analyzed by `itg decode`, give the report
// that the live run printed after its flow and link header.
func TestDecodeSavedLogsMatchesLive(t *testing.T) {
	live := runMain(t, itgArgs...)
	dir := t.TempDir()
	saved := runMain(t, append(itgArgs, "-savelogs", dir)...)
	decoded := runMain(t, "decode", dir, "-series", "rtt")
	_, report, ok := bytes.Cut(live, []byte("\n\n"))
	if !ok || !bytes.Equal(report, decoded) {
		t.Errorf("itg decode printed\n%s\nthe live run printed\n%s", decoded, live)
	}
	if !bytes.HasSuffix(saved, decoded) {
		t.Errorf("itg decode printed\n%s\nthe -savelogs run printed\n%s", decoded, saved)
	}
}
