package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMShutsDownGracefully: a script stops the daemon with `kill`,
// which sends SIGTERM — and a shell that started it with `&` has left
// SIGINT ignored. The built binary must take SIGTERM as a shutdown: stop
// serving, then write the final metrics and the auditor's summary and
// exit 0.
func TestSIGTERMShutsDownGracefully(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go build is unavailable")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "snfsd")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("go build is unavailable: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-populate",
		"-audit-journal", filepath.Join(dir, "audit.jsonl"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var log bytes.Buffer
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		log.WriteString(lines.Text() + "\n")
		if strings.Contains(lines.Text(), "snfsd: serving snfs on ") {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() {
		for lines.Scan() {
			log.WriteString(lines.Text() + "\n")
		}
		exited <- cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("snfsd exited with %v after SIGTERM, want 0", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("snfsd still running 20 s after SIGTERM")
	}
	for _, want := range []string{"snfsd: shutting down", "snfsd: final metrics", "# TYPE ", "audit: 0 events witnessed, 0 violations"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, log.String())
		}
	}
}
