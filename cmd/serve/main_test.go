package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestFlagsDocumented fails when a registered serve flag has no row in
// README.md's serve flag table (a line starting "| `-name`").
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			if name, _, ok := strings.Cut(rest, "`"); ok {
				rows[name] = true
			}
		}
	}
	n := 0
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) {
		n++
		if !rows[f.Name] {
			t.Errorf("serve flag -%s has no row in README.md's serve flag table", f.Name)
		}
	})
	if n == 0 {
		t.Fatal("newFlagSet registered no flags")
	}
}

func TestRunBadAddr(t *testing.T) {
	err := run("127.0.0.1:99999", time.Second, time.Second, time.Second, 1, 1000, "", 0, 0)
	if err == nil {
		t.Fatal("run accepted an unbindable address")
	}
}

// TestRunSignalDrain boots the real command path on an ephemeral port,
// waits until it answers /healthz (so the signal handler is installed),
// then sends the process SIGINT and expects a clean, nil-error drain.
func TestRunSignalDrain(t *testing.T) {
	// Reserve a port, then hand its address to run. The tiny reuse window
	// between Close and run's own Listen is harmless on a loopback test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	errc := make(chan error, 1)
	go func() {
		errc <- run(addr, time.Second, 2*time.Second, 5*time.Second, 8, 100000, "", 0, 0)
	}()

	up := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				up = true
				break
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("run exited before serving: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !up {
		t.Fatal("server never answered /healthz")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after SIGINT, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain within 10s of SIGINT")
	}
}
