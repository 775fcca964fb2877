package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"verc3/internal/statespace"
)

// ReportVersion is the run-report schema version. Bump it on any change a
// reader could misparse; Validate rejects versions it does not know so
// downstream tooling (EXPERIMENTS.md regeneration, the CI artifact check,
// the future verc3d job store) fails loudly instead of reading garbage.
// Version 2 added the abort/resume fields (Aborted, AbortCause, Resumed)
// and the failure-model event kinds. Version 3 dropped the exact field
// with the lossy visited backend it flagged: a version-2 reader would take
// its absence for false. Validate accepts only the current version.
const ReportVersion = 3

// Report is the machine-readable end-of-run record written by the CLIs'
// -report flag: environment, effective options, verdict, the full
// statespace.Stats profile, the final telemetry snapshot, the snapshot
// timeline, the per-phase timing histograms, and the structured event
// log. One report is one run; verc3-report validates and summarizes them.
type Report struct {
	Version    int       `json:"version"`
	Tool       string    `json:"tool"`
	System     string    `json:"system"`
	GoVersion  string    `json:"go"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Start      time.Time `json:"start"`
	ElapsedNS  int64     `json:"elapsed_ns"`
	// Options records every flag's effective value (flag.VisitAll), so a
	// report is reproducible without the invoking command line.
	Options map[string]string `json:"options,omitempty"`
	Verdict string            `json:"verdict"`
	// Aborted reports that the run was cut short — cancelled, timed out,
	// or stopped by a contained panic — and its stats are a partial view.
	// AbortCause carries the rendered cancel cause or panic value.
	Aborted    bool   `json:"aborted,omitempty"`
	AbortCause string `json:"abort_cause,omitempty"`
	// Resumed reports that the run was seeded from a committed checkpoint
	// rather than the system's initial states.
	Resumed bool `json:"resumed,omitempty"`
	// Space is the run's full memory/exploration profile — for synthesis
	// runs, the engine's cross-dispatch aggregate.
	Space    statespace.Stats             `json:"space"`
	Final    Snapshot                     `json:"final"`
	Timeline []Snapshot                   `json:"timeline,omitempty"`
	Phases   map[string]HistogramSnapshot `json:"phases,omitempty"`
	Events   []Event                      `json:"events,omitempty"`
	// EventsDropped counts events lost to the retention cap.
	EventsDropped int `json:"events_dropped,omitempty"`
}

// NewReport starts a report for one tool run.
func NewReport(tool, system string) *Report {
	return &Report{
		Version:    ReportVersion,
		Tool:       tool,
		System:     system,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Start:      time.Now(),
	}
}

// Finish folds the collector's end state into the report: elapsed time,
// final snapshot, timeline, phase histograms and events. Callers flush
// all workers first (the checker does, at run end), so Final is exact.
func (r *Report) Finish(c *Collector) {
	r.ElapsedNS = c.Elapsed().Nanoseconds()
	r.Final = c.Snapshot()
	r.Timeline = c.Timeline()
	r.Phases = c.Phases()
	r.Events, r.EventsDropped = c.Events()
}

// Write validates the report and writes it as indented JSON — a report
// that would not round-trip through Validate never lands on disk.
func (r *Report) Write(path string) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("obs: refusing to write invalid report: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport parses and validates a report file.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Validate checks the report against its schema: version match, required
// identity fields, non-negative elapsed time, a timeline whose elapsed
// times and counters are monotone non-decreasing, a final snapshot that
// dominates the last timeline entry, known phase names, and internally
// consistent histograms (count equals the bucket sum).
func (r *Report) Validate() error {
	if r.Version != ReportVersion {
		return fmt.Errorf("report version %d, want %d", r.Version, ReportVersion)
	}
	if r.Tool == "" {
		return fmt.Errorf("report has no tool")
	}
	if r.Verdict == "" {
		return fmt.Errorf("report has no verdict")
	}
	if r.AbortCause != "" && !r.Aborted {
		return fmt.Errorf("report has abort_cause %q without aborted", r.AbortCause)
	}
	if r.Aborted && r.Verdict == "success" {
		return fmt.Errorf("report is aborted yet claims verdict %q", r.Verdict)
	}
	if r.ElapsedNS < 0 {
		return fmt.Errorf("negative elapsed_ns %d", r.ElapsedNS)
	}
	prev := Snapshot{}
	for i, s := range r.Timeline {
		if s.ElapsedNS < prev.ElapsedNS {
			return fmt.Errorf("timeline[%d]: elapsed_ns %d < previous %d", i, s.ElapsedNS, prev.ElapsedNS)
		}
		for ct := Counter(0); ct < NumCounters; ct++ {
			if s.Counters[ct] < prev.Counters[ct] {
				return fmt.Errorf("timeline[%d]: counter %s decreased (%d < %d)",
					i, ct, s.Counters[ct], prev.Counters[ct])
			}
		}
		prev = s
	}
	for ct := Counter(0); ct < NumCounters; ct++ {
		if r.Final.Counters[ct] < prev.Counters[ct] {
			return fmt.Errorf("final: counter %s below last timeline entry (%d < %d)",
				ct, r.Final.Counters[ct], prev.Counters[ct])
		}
	}
	for name, hs := range r.Phases {
		known := false
		for p := Phase(0); p < NumPhases; p++ {
			if p.String() == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("phases: unknown phase %q", name)
		}
		if len(hs.Buckets) > HistBuckets {
			return fmt.Errorf("phases[%s]: %d buckets, max %d", name, len(hs.Buckets), HistBuckets)
		}
		sum := uint64(0)
		for _, n := range hs.Buckets {
			sum += n
		}
		if sum != hs.Count {
			return fmt.Errorf("phases[%s]: bucket sum %d != count %d", name, sum, hs.Count)
		}
	}
	return nil
}
