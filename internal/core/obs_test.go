package core_test

import (
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/toy"
)

// TestSynthesisEvents pins the structured progress stream on the Figure 2
// worked example: every round and the unique solution arrive as typed
// events carrying a rendered Text line, and the collector's synthesis
// counters and gauges agree with the run's Stats.
func TestSynthesisEvents(t *testing.T) {
	col := obs.New()
	var events []obs.Event
	res, err := core.Synthesize(toy.Figure2(), core.Config{
		Mode: core.ModePrune,
		Obs:  col,
		Events: func(ev obs.Event) {
			events = append(events, ev)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, solutions := 0, 0
	for i, ev := range events {
		if ev.Text == "" {
			t.Errorf("event %d (%v) has no rendered Text", i, ev.Kind)
		}
		if ev.ElapsedNS <= 0 {
			t.Errorf("event %d has no elapsed stamp", i)
		}
		switch ev.Kind {
		case obs.EventRound:
			rounds++
			if ev.Round != rounds {
				t.Errorf("round event %d numbered %d", rounds, ev.Round)
			}
			if ev.Holes == 0 || ev.Candidates == 0 {
				t.Errorf("round event missing fields: %+v", ev)
			}
		case obs.EventSolution:
			solutions++
			if !strings.Contains(ev.Text, ev.Solution) {
				t.Errorf("solution event Text %q does not carry Solution %q", ev.Text, ev.Solution)
			}
			if ev.States == 0 {
				t.Errorf("solution event has no state count: %+v", ev)
			}
		}
	}
	if rounds != res.Stats.Rounds {
		t.Errorf("%d round events, stats say %d rounds", rounds, res.Stats.Rounds)
	}
	if solutions != 1 {
		t.Errorf("%d solution events, want 1", solutions)
	}

	s := col.Snapshot()
	if got, want := s.Counters[obs.CEvaluated], uint64(res.Stats.Evaluated); got != want {
		t.Errorf("evaluated counter %d, stats %d", got, want)
	}
	if got, want := s.Counters[obs.CSkipped], uint64(res.Stats.Skipped); got != want {
		t.Errorf("skipped counter %d, stats %d", got, want)
	}
	if got, want := s.Counters[obs.CSolutions], uint64(len(res.Solutions)); got != want {
		t.Errorf("solutions counter %d, want %d", got, want)
	}
	if s.Counters[obs.CStates] == 0 {
		t.Error("no exploration states flowed into the synthesis collector")
	}
	if got, want := s.Gauges[obs.GHoles], uint64(res.Stats.Holes); got != want {
		t.Errorf("holes gauge %d, stats %d", got, want)
	}
	if got, want := s.Gauges[obs.GPatterns], uint64(res.Stats.Patterns); got != want {
		t.Errorf("patterns gauge %d, stats %d", got, want)
	}
	if got, want := s.Gauges[obs.GRound], uint64(res.Stats.Rounds); got != want {
		t.Errorf("round gauge %d, stats %d", got, want)
	}
	evs, dropped := col.Events()
	if dropped != 0 || len(evs) != len(events) {
		t.Errorf("collector retained %d events (%d dropped), callback saw %d", len(evs), dropped, len(events))
	}
}

// TestSynthesisRejectsMCObs pins the managed-field contract: the collector
// goes in Config.Obs, never Config.MC.Obs.
func TestSynthesisRejectsMCObs(t *testing.T) {
	_, err := core.Synthesize(toy.Figure2(), core.Config{
		MC: mc.Options{Obs: obs.New()},
	})
	if err == nil || !strings.Contains(err.Error(), "MC.Obs") {
		t.Fatalf("err = %v, want MC.Obs rejection", err)
	}
}
