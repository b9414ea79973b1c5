package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/obs/flight"
)

// incidentCheck is one validation verdict over a captured bundle.
type incidentCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// incidentSummary is the JSON record `scecnet fleet -incident-summary`
// writes (results/incident-demo.json in the committed demo): which bundle
// the watchdog captured, what it contains, and whether every artifact the
// incident pipeline promises actually landed.
type incidentSummary struct {
	Bundle        string          `json:"bundle"`
	Rule          string          `json:"rule"`
	Detail        string          `json:"detail,omitempty"`
	Files         []string        `json:"files"`
	JournalEvents map[string]int  `json:"journal_events"`
	Checks        []incidentCheck `json:"checks"`
	OK            bool            `json:"ok"`
}

// writeIncidentSummary validates the first captured bundle end to end and
// writes the summary JSON to path. adaptive selects the recovery events the
// journal must show (replan adopt + rehost vs. standby repair); served, when
// it has a fleet session, is the live handle whose placement history is
// audited. A missing or incomplete bundle is an error, so the incident demo
// fails loudly.
func writeIncidentSummary(out io.Writer, path, dir string, incidents []flight.IncidentMeta, outageAddrs []string, adaptive bool, served *scec.Served[uint64]) error {
	if len(incidents) == 0 {
		return fmt.Errorf("incident summary: no bundle was captured under %s", dir)
	}
	meta := incidents[0]
	bundle := filepath.Join(dir, meta.ID)
	s := incidentSummary{
		Bundle:        bundle,
		Rule:          meta.Rule,
		Detail:        meta.Detail,
		Files:         meta.Files,
		JournalEvents: map[string]int{},
	}
	check := func(name string, ok bool, detail string) {
		if ok {
			detail = ""
		}
		s.Checks = append(s.Checks, incidentCheck{Name: name, OK: ok, Detail: detail})
	}

	// Goroutine dump: non-empty and recognizably a stack dump.
	gs, err := os.ReadFile(filepath.Join(bundle, "pprof-goroutine.txt"))
	check("goroutine-profile", err == nil && strings.Contains(string(gs), "goroutine "),
		fmt.Sprintf("pprof-goroutine.txt unreadable or empty: %v", err))

	// Heap profile: present and non-empty (a binary pprof protobuf).
	hs, err := os.Stat(filepath.Join(bundle, "pprof-heap.bin"))
	check("heap-profile", err == nil && hs.Size() > 0, fmt.Sprintf("pprof-heap.bin missing: %v", err))

	// Metrics snapshot: valid JSON with at least one metric family.
	var metrics struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	mb, err := os.ReadFile(filepath.Join(bundle, "metrics.json"))
	if err == nil {
		err = json.Unmarshal(mb, &metrics)
	}
	check("metrics-snapshot", err == nil && len(metrics.Metrics) > 0,
		fmt.Sprintf("metrics.json unreadable or empty: %v", err))

	// Journal tail: must show the breaker opening on the outage and the
	// recovery path that cured it.
	var dump struct {
		Events []flight.Event `json:"events"`
	}
	jb, err := os.ReadFile(filepath.Join(bundle, "journal.json"))
	if err == nil {
		err = json.Unmarshal(jb, &dump)
	}
	check("journal", err == nil && len(dump.Events) > 0, fmt.Sprintf("journal.json unreadable or empty: %v", err))
	for _, ev := range dump.Events {
		s.JournalEvents[ev.Kind.String()]++
	}
	check("journal-breaker-open", s.JournalEvents[flight.KindBreakerOpen.String()] > 0,
		"no breaker-open event in the journal tail")
	if adaptive {
		check("journal-replan-adopt", s.JournalEvents[flight.KindReplanAdopt.String()] > 0,
			"no replan-adopt event: the control plane never adopted a recovery plan")
		check("journal-rehost-ok", s.JournalEvents[flight.KindRehostOK.String()] > 0,
			"no rehost-ok event: the recovery migration never landed")
	} else {
		check("journal-repair-ok", s.JournalEvents[flight.KindRepairOK.String()] > 0,
			"no repair-ok event: standby self-repair never landed")
	}

	// Lifetime secrecy over the whole run, not per block: the bindings record
	// every address ever sent a block (vacated hosts and failed pushes
	// included), so a replica serving any other block has seen two.
	if served != nil && served.Session() != nil {
		session, oneBlock := served.Session(), true
		bound := session.Bindings()
		for j, group := range session.BlockHosts() {
			for _, addr := range group {
				if b, ok := bound[addr]; !ok || b != j {
					oneBlock = false
				}
			}
		}
		check("one-block-per-device", oneBlock, "a device was sent two different blocks of one encoding")
	}

	// Traces: at least one retained span must belong to a device the
	// outage killed, proving the bundle can attribute the incident.
	var traced bool
	if tb, err := os.ReadFile(filepath.Join(bundle, "traces.json")); err == nil {
		for _, addr := range outageAddrs {
			if strings.Contains(string(tb), addr) {
				traced = true
			}
		}
	}
	check("trace-failing-device", traced || len(outageAddrs) == 0,
		fmt.Sprintf("no retained span mentions the killed replica(s) %v", outageAddrs))

	s.OK = true
	for _, c := range s.Checks {
		if !c.OK {
			s.OK = false
		}
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "incident summary: bundle %s (rule %s)\n", bundle, meta.Rule)
	for _, c := range s.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL: " + c.Detail
		}
		fmt.Fprintf(out, "  %-24s %s\n", c.Name, verdict)
	}
	if !s.OK {
		return fmt.Errorf("incident bundle %s is incomplete (see %s)", bundle, path)
	}
	fmt.Fprintf(out, "incident summary written to %s\n", path)
	return nil
}
