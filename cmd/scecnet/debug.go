package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/scec/scec/internal/obs"
)

// runDebug implements `scecnet debug snapshot`: capture the debug surface a
// running scecnet process serves (its -metrics-addr) into a local
// directory, for offline triage or attaching to a ticket. The routes come
// from the process's own /debug index, so a snapshot covers exactly what
// that build mounts, and obs.CaptureDebug names the files — a snapshot and
// an incident bundle of the same process hold the same files.
func runDebug(args []string, out io.Writer) error {
	if len(args) == 0 || args[0] != "snapshot" {
		return fmt.Errorf("usage: scecnet debug snapshot -addr HOST:PORT [-out DIR]")
	}
	fs := flag.NewFlagSet("scecnet debug snapshot", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "", "telemetry address of the running process (its -metrics-addr)")
		outDir  = fs.String("out", "", "directory to write the snapshot into (default results/snapshot-<timestamp>)")
		timeout = fs.Duration("timeout", 10*time.Second, "per-request bound")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("scecnet debug snapshot: -addr is required")
	}
	dir := *outDir
	if dir == "" {
		dir = filepath.Join("results", "snapshot-"+time.Now().UTC().Format("20060102T150405Z"))
	}
	captured, err := obs.CaptureDebug(&http.Client{Timeout: *timeout}, "http://"+*addr, dir)
	if err != nil {
		return fmt.Errorf("scecnet debug snapshot: %w", err)
	}
	mf, err := json.MarshalIndent(struct {
		Addr   string              `json:"addr"`
		At     string              `json:"at"`
		Routes []obs.CapturedRoute `json:"routes"`
	}{*addr, time.Now().UTC().Format(time.RFC3339), captured}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), append(mf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "snapshot: captured %d routes from %s into %s\n", len(captured), *addr, dir)
	for _, c := range captured {
		if c.Err != "" {
			fmt.Fprintf(out, "  %-28s ERROR %s\n", c.Pattern, c.Err)
		} else {
			fmt.Fprintf(out, "  %-28s -> %s (%d bytes)\n", c.Pattern, c.File, c.Bytes)
		}
	}
	return nil
}
