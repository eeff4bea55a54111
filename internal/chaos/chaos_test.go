package chaos

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/sim"
	"bftkit/internal/types"

	_ "bftkit/internal/protocols/chainrepl"
	_ "bftkit/internal/protocols/cheapbft"
	_ "bftkit/internal/protocols/fab"
	_ "bftkit/internal/protocols/hotstuff"
	_ "bftkit/internal/protocols/kauri"
	_ "bftkit/internal/protocols/poe"
	_ "bftkit/internal/protocols/prime"
	_ "bftkit/internal/protocols/raftlite"
	_ "bftkit/internal/protocols/sbft"
	_ "bftkit/internal/protocols/tendermint"
	_ "bftkit/internal/protocols/themis"
	_ "bftkit/internal/protocols/zyzzyva"
)

// TestGeneratedSchedulesAreWellFormed pins the generator's contract:
// every schedule validates, settles into the eventually-good case the
// liveness invariant assumes, and survives a JSON round-trip unchanged.
func TestGeneratedSchedulesAreWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	protos := core.Names()
	for i := 0; i < 64; i++ {
		s := Generate(rng, protos, i)
		if err := s.Validate(); err != nil {
			t.Fatalf("case %d does not validate: %v", i, err)
		}
		if !s.EventuallyGood() {
			t.Fatalf("case %d is not eventually good: %+v", i, s)
		}
		raw, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("case %d marshal: %v", i, err)
		}
		var back Schedule
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("case %d unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("case %d changed across JSON round-trip:\n  %+v\n  %+v", i, s, back)
		}
	}
}

// TestGeneratorRespectsTrustEnvelopes: protocols that assume honest
// backups or an honest interior must never be handed replica crashes,
// partitions, or lossy links — violations outside their envelope are by
// design, not findings.
func TestGeneratorRespectsTrustEnvelopes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	protos := core.Names()
	for i := 0; i < 256; i++ {
		s := Generate(rng, protos, i)
		reg, _ := core.Lookup(s.Config.Protocol)
		if !reg.Profile.HasAssumption(core.AssumeHonestBackups) &&
			!reg.Profile.HasAssumption(core.AssumeHonestInterior) {
			continue
		}
		for _, ev := range s.Events {
			if ev.Kind == EvCrash || ev.Kind == EvPartition {
				t.Fatalf("case %d (%s) got a %s event inside its trust envelope", i, s.Config.Protocol, ev.Kind)
			}
		}
		net := s.Config.Net
		if net.DropRate != 0 || net.DuplicateRate != 0 || net.PreGSTDropRate != 0 {
			t.Fatalf("case %d (%s) got a lossy network inside its trust envelope: %+v", i, s.Config.Protocol, net)
		}
	}
}

// TestChaosRunsAreDeterministic is the property everything else leans
// on: the same seed must produce the same schedules, the same verdict
// line, and bit-identical per-run reports down to the message counters.
func TestChaosRunsAreDeterministic(t *testing.T) {
	gen := func() []Schedule {
		rng := rand.New(rand.NewSource(11))
		protos := core.Names()
		out := make([]Schedule, 6)
		for i := range out {
			out[i] = Generate(rng, protos, i)
		}
		return out
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed generated different schedules")
	}
	for i, s := range a {
		ra, rb := Run(s), Run(s)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("case %d (%s): two runs of the same schedule disagree:\n  %+v\n  %+v",
				i, s.Config.Protocol, ra, rb)
		}
		if ra.Msgs == 0 {
			t.Fatalf("case %d (%s): no ordering traffic accounted; the tracer is not wired", i, s.Config.Protocol)
		}
	}

	fa := Fuzz(FuzzOptions{Seed: 11, Budget: 6, ShrinkBudget: -1})
	fb := Fuzz(FuzzOptions{Seed: 11, Budget: 6, ShrinkBudget: -1})
	if fa.Verdict() != fb.Verdict() {
		t.Fatalf("same campaign, different verdicts:\n  %s\n  %s", fa.Verdict(), fb.Verdict())
	}
}

// TestEventStormEndsAsRunaway: a replica that re-arms a 1 ns timer keeps
// the scheduler inside one 250 ms slice for 250 million events. Run must
// still return, after its event budget, with runaway as the verdict.
func TestEventStormEndsAsRunaway(t *testing.T) {
	s := Schedule{Config: Config{
		Protocol: "pbft", N: 4, F: 1, Clients: 1, Requests: 1, Seed: 1,
		Net: sim.DefaultLAN(),
		Byz: []ByzAssignment{{Node: 3, Spec: "stale:1ns"}},
	}}
	rep := Run(s)
	if v := rep.First(); v == nil || v.Invariant != InvRunaway {
		t.Fatalf("storm verdict %v, want [%s]", v, InvRunaway)
	}
	if rep.EndTime >= runStep {
		t.Fatalf("storm ended at t=%v, past the first %v slice", rep.EndTime, runStep)
	}
}

// TestCorpusReplaysClean replays every checked-in reproducer-format
// schedule under testdata/corpus; all must hold every invariant. The
// corpus is the PR-path regression net — a protocol or simulator change
// that breaks one of these fails fast without a full campaign.
func TestCorpusReplaysClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("empty seed corpus: testdata/corpus/*.json missing")
	}
	for _, path := range paths {
		s, err := LoadSchedule(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rep := Run(s)
		if rep.Failed() {
			t.Errorf("%s: %d violations; first: %s\n  reproduce: go run ./cmd/bftbench -fuzz-replay %s",
				path, len(rep.Violations), rep.First(), filepath.Join("internal", "chaos", path))
		}
	}
}

// TestArtifactRoundTrip: a written reproducer loads back into the same
// schedule, both as a full artifact and as a bare schedule file.
func TestArtifactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Generate(rng, []string{"pbft"}, 0)
	rep := &Report{Schedule: s, Violations: []Violation{
		{Invariant: InvAgreement, At: time.Second, Detail: "synthetic"},
	}}
	art := NewArtifact(rep, "test")
	dir := t.TempDir()

	full := filepath.Join(dir, "artifact.json")
	if err := art.Write(full); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSchedule(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("artifact round-trip changed the schedule")
	}

	bare := filepath.Join(dir, "bare.json")
	raw, _ := s.MarshalIndent()
	if err := os.WriteFile(bare, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadSchedule(bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("bare-schedule round-trip changed the schedule")
	}

	if art.Invariants[0] != InvAgreement || art.Detail == "" {
		t.Fatalf("artifact lost its verdict: %+v", art)
	}
}

func TestScheduleValidateRejectsMalformed(t *testing.T) {
	base := func() Schedule {
		return Schedule{Config: Config{Protocol: "pbft", N: 4, F: 1, Clients: 1, Requests: 1, Seed: 1}}
	}
	cases := map[string]func(*Schedule){
		"unknown protocol":   func(s *Schedule) { s.Config.Protocol = "nope" },
		"undersized cluster": func(s *Schedule) { s.Config.N = 3 },
		"zero seed":          func(s *Schedule) { s.Config.Seed = 0 },
		"no clients":         func(s *Schedule) { s.Config.Clients = 0 },
		"bad byz spec":       func(s *Schedule) { s.Config.Byz = []ByzAssignment{{Node: 0, Spec: "gibberish"}} },
		"byz outside cluster": func(s *Schedule) {
			s.Config.Byz = []ByzAssignment{{Node: 9, Spec: "equivocate"}}
		},
		"unsorted events": func(s *Schedule) {
			s.Events = []Event{{At: time.Second, Kind: EvHeal}, {At: 0, Kind: EvHeal}}
		},
		"event outside cluster": func(s *Schedule) {
			s.Events = []Event{{At: 0, Kind: EvCrash, Node: 7}}
		},
		"partition of everyone": func(s *Schedule) {
			s.Events = []Event{{At: 0, Kind: EvPartition, Group: []types.NodeID{0, 1, 2, 3}}}
		},
	}
	for name, mutate := range cases {
		s := base()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	s := base()
	if err := s.Validate(); err != nil {
		t.Fatalf("base schedule should validate: %v", err)
	}
}

// TestShrinkStopsWithinBudget: a "failure" that no candidate reproduces
// (the report is fabricated; the schedule actually passes) must leave
// the input untouched and spend at most the run budget.
func TestShrinkStopsWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := Generate(rng, []string{"pbft"}, 0)
	fake := &Report{Schedule: s, Violations: []Violation{
		{Invariant: InvAgreement, Detail: "fabricated"},
	}}
	min, runs := Shrink(fake, 25)
	if runs > 25 {
		t.Fatalf("shrink spent %d runs over a budget of 25", runs)
	}
	if !reflect.DeepEqual(min.Schedule, s) {
		t.Fatalf("shrink of an unreproducible failure changed the schedule")
	}
}
