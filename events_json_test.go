package dualvdd

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"dualvdd/internal/netlist"
)

// eventFixtures returns one fully populated value per event kind. The test
// below fails if a new Event implementation is added without extending this
// list, so the codec cannot silently lag the type set.
func eventFixtures() map[string]Event {
	return map[string]Event{
		EventKindMapped: EventMapped{
			Circuit: "C880", Gates: 157, MinDelay: 3.25, Tspec: 3.9, OrgPower: 8.012e-5,
		},
		EventKindMove: EventMove{
			Circuit: "C880", Algorithm: "Dscale", Round: 2, Gate: 41,
		},
		EventKindRoundDone: EventRoundDone{
			Circuit: "C880", Algorithm: "Dscale", Round: 2, Moves: 7,
			LowGates: 93, Power: 6.4e-5, STAEvals: 1365, WorstArrival: 3.8991,
		},
		EventKindResult: EventResult{
			Circuit: "C880",
			Result: &FlowResult{
				Algorithm: "Gscale", Power: 6.19e-5, ImprovePct: 22.7,
				Gates: 157, LowGates: 147, LCs: 3, Sized: 18,
				LowRatio: 0.9363, AreaIncrease: 0.095, WorstSlack: 0.0125,
				Runtime: 1500 * time.Millisecond, STAEvals: 3608, CandEvals: 239,
				SimTime: 12 * time.Millisecond,
			},
		},
		EventKindSweepPoint: EventSweepPoint{
			Index: 3, Total: 27, Circuit: "C880",
			Vhigh: 5.0, Vlow: 3.9, SlackFactor: 1.2, SimWords: 256,
			Algorithms: []Algorithm{AlgoGscale}, Cached: true,
			Results: []*FlowResult{{
				Algorithm: "Gscale", Power: 5.9e-5, ImprovePct: 26.4,
				Gates: 157, LowGates: 150, LCs: 2, WorstSlack: 0.031,
			}},
		},
		EventKindSweepDone: EventSweepDone{Points: 27, Cached: 27, Circuits: 3},
	}
}

func TestEventJSONRoundTripEveryKind(t *testing.T) {
	fixtures := eventFixtures()
	// Completeness: every wire kind has a fixture, and every fixture's
	// EventKind agrees with its map key.
	kinds := []string{EventKindMapped, EventKindMove, EventKindRoundDone, EventKindResult,
		EventKindSweepPoint, EventKindSweepDone}
	if len(fixtures) != len(kinds) {
		t.Fatalf("fixture set has %d kinds, codec declares %d", len(fixtures), len(kinds))
	}
	for _, kind := range kinds {
		ev, ok := fixtures[kind]
		if !ok {
			t.Fatalf("no fixture for event kind %q", kind)
		}
		if got := EventKind(ev); got != kind {
			t.Fatalf("EventKind(%T) = %q, want %q", ev, got, kind)
		}

		b, err := MarshalEvent(ev)
		if err != nil {
			t.Fatalf("marshal %s: %v", kind, err)
		}
		// The envelope is type-tagged and self-describing.
		var env struct {
			Type string          `json:"type"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("envelope %s: %v\n%s", kind, err, b)
		}
		if env.Type != kind || len(env.Data) == 0 {
			t.Fatalf("envelope for %s = {type:%q, data:%d bytes}", kind, env.Type, len(env.Data))
		}

		back, err := UnmarshalEvent(b)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", kind, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("%s round trip drifted:\n got %#v\nwant %#v", kind, back, ev)
		}
	}
}

func TestEventJSONStableEncoding(t *testing.T) {
	// The wire bytes are a contract (SSE consumers, -progress logs); this
	// pins every kind's field names so a rename cannot slip through
	// silently. The result carries its scaled netlist, which must stay off
	// the wire.
	fx := eventFixtures()
	res := *fx[EventKindResult].(EventResult).Result
	res.Circuit = netlist.New("C880")
	cases := []struct {
		ev   Event
		want string
	}{
		{fx[EventKindMapped], `{"type":"mapped","data":{"circuit":"C880","gates":157,"min_delay_ns":3.25,"tspec_ns":3.9,"org_power_w":0.00008012}}`},
		{fx[EventKindMove], `{"type":"move","data":{"circuit":"C880","algorithm":"Dscale","round":2,"gate":41}}`},
		{fx[EventKindRoundDone], `{"type":"round_done","data":{"circuit":"C880","algorithm":"Dscale","round":2,"moves":7,"low_gates":93,"power_w":0.000064,"sta_evals":1365,"worst_arrival_ns":3.8991}}`},
		{EventResult{Circuit: "C880", Result: &res}, `{"type":"result","data":{"circuit":"C880","result":{"algorithm":"Gscale",` +
			`"power_w":0.0000619,"improve_pct":22.7,"gates":157,"low_gates":147,"lcs":3,"sized":18,` +
			`"low_ratio":0.9363,"area_increase":0.095,"worst_slack_ns":0.0125,"runtime_ns":1500000000,` +
			`"sta_evals":3608,"cand_evals":239,"sim_ns":12000000}}}`},
		{fx[EventKindSweepDone], `{"type":"sweep_done","data":{"points":27,"cached":27,"circuits":3}}`},
		// A sweep point on an inline BLIF model carries its positional label
		// ("blif#<index>" — every inline model gets a distinct one), and a
		// multi-rail point carries its full supply table; a two-rail point
		// omits "rails" entirely (see the fixture round trip above).
		{EventSweepPoint{
			Index: 1, Total: 4, Circuit: "blif#1",
			Vhigh: 5.0, Vlow: 3.6, SlackFactor: 1.2, SimWords: 256,
			Rails:      []float64{5.0, 4.3, 3.6},
			Algorithms: []Algorithm{AlgoCVS},
			Results: []*FlowResult{{
				Algorithm: "CVS", Power: 5.9e-5, ImprovePct: 12.1,
				Gates: 42, LowGates: 11, LCs: 3, WorstSlack: 0.02,
				RailGates: []int{28, 11, 3},
				LCCross:   []LCCrossing{{From: 2, To: 0, LCs: 2}, {From: 1, To: 0, LCs: 1}},
			}},
		}, `{"type":"sweep_point","data":{"index":1,"total":4,"circuit":"blif#1",` +
			`"vhigh":5,"vlow":3.6,"slack_factor":1.2,"sim_words":256,"rails":[5,4.3,3.6],` +
			`"algorithms":["CVS"],"results":[{"algorithm":"CVS","power_w":0.000059,` +
			`"improve_pct":12.1,"gates":42,"low_gates":11,"lcs":3,` +
			`"sized":0,"low_ratio":0,"area_increase":0,"worst_slack_ns":0.02,"runtime_ns":0,"sta_evals":0,` +
			`"cand_evals":0,"sim_ns":0,"rail_gates":[28,11,3],` +
			`"lc_crossings":[{"from":2,"to":0,"lcs":2},{"from":1,"to":0,"lcs":1}]}]}}`},
	}
	for _, tc := range cases {
		// The pointer form of every kind encodes exactly like its value.
		ptr := reflect.New(reflect.TypeOf(tc.ev))
		ptr.Elem().Set(reflect.ValueOf(tc.ev))
		for _, ev := range []Event{tc.ev, ptr.Interface().(Event)} {
			b, err := MarshalEvent(ev)
			if err != nil {
				t.Fatalf("%T: %v", ev, err)
			}
			if string(b) != tc.want {
				t.Fatalf("%T encoding drifted:\n got %s\nwant %s", ev, b, tc.want)
			}
		}
	}
}

func TestEventResultJSONExcludesCircuit(t *testing.T) {
	ev := eventFixtures()[EventKindResult].(EventResult)
	b, err := MarshalEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(b)), "circuit\":{") {
		t.Fatalf("netlist leaked into the wire encoding: %s", b)
	}
}

type bogusEvent struct{}

func (bogusEvent) isEvent() {}

func TestEventJSONRejectsUnknown(t *testing.T) {
	if _, err := MarshalEvent(bogusEvent{}); err == nil {
		t.Fatal("marshalled an unregistered event type")
	}
	if _, err := UnmarshalEvent([]byte(`{"type":"nonesuch","data":{}}`)); err == nil {
		t.Fatal("decoded an unknown type tag")
	}
}
