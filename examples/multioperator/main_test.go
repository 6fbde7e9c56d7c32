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
// the tests re-execute the binary with it to drive main() exactly as a
// user's shell would, flags and stdout included.
const runMainEnv = "MULTIOPERATOR_TEST_RUN_MAIN"

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
		t.Fatalf("multioperator %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// TestGoldenOutput pins the SHA-256 of the two-operator comparison at
// its default 60 s flow. Like the other stdout digests of the
// repository, it is recorded on amd64 only.
func TestGoldenOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	const want = "e89d26dbe26cf7a9641f6cb9e4697f406ee6f2e9247f988745c9905c31c4897d"
	out := runMain(t)
	if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want {
		t.Errorf("stdout digest %x, want %s\n%s", sum, want, out)
	}
}
