package dualvdd

import (
	"encoding/json"
	"fmt"
)

// Event kinds as they appear in the JSON envelope's "type" field. The strings
// are wire format — stable across releases.
const (
	EventKindMapped     = "mapped"
	EventKindMove       = "move"
	EventKindRoundDone  = "round_done"
	EventKindResult     = "result"
	EventKindSweepPoint = "sweep_point"
	EventKindSweepDone  = "sweep_done"
)

// EventKind returns the envelope type tag of an event, or "" for an unknown
// implementation of Event.
func EventKind(ev Event) string {
	switch ev.(type) {
	case EventMapped, *EventMapped:
		return EventKindMapped
	case EventMove, *EventMove:
		return EventKindMove
	case EventRoundDone, *EventRoundDone:
		return EventKindRoundDone
	case EventResult, *EventResult:
		return EventKindResult
	case EventSweepPoint, *EventSweepPoint:
		return EventKindSweepPoint
	case EventSweepDone, *EventSweepDone:
		return EventKindSweepDone
	}
	return ""
}

// envelope is the type-tagged wire form MarshalEvent writes and
// UnmarshalEvent reads:
//
//	{"type":"round_done","data":{"circuit":"C880","algorithm":"Dscale",...}}
//
// The tag makes the stream self-describing, so an SSE consumer (or a
// -progress log reader) can dispatch without guessing at field sets.
type envelope struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// MarshalEvent encodes an event as its type-tagged envelope: the kind from
// EventKind and the event's own fields as the data. Like EventKind, it
// accepts both value and pointer forms, and both encode alike.
func MarshalEvent(ev Event) ([]byte, error) {
	kind := EventKind(ev)
	if kind == "" {
		return nil, fmt.Errorf("dualvdd: cannot marshal event type %T", ev)
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Type: kind, Data: data})
}

// UnmarshalEvent decodes a type-tagged envelope into the matching concrete
// event. Unknown type tags are an error, so a newer server talking to an
// older client fails loudly instead of silently dropping fields.
func UnmarshalEvent(b []byte) (Event, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	switch env.Type {
	case EventKindMapped:
		return decodeEvent[EventMapped](env.Data)
	case EventKindMove:
		return decodeEvent[EventMove](env.Data)
	case EventKindRoundDone:
		return decodeEvent[EventRoundDone](env.Data)
	case EventKindResult:
		return decodeEvent[EventResult](env.Data)
	case EventKindSweepPoint:
		return decodeEvent[EventSweepPoint](env.Data)
	case EventKindSweepDone:
		return decodeEvent[EventSweepDone](env.Data)
	}
	return nil, fmt.Errorf("dualvdd: unknown event type %q", env.Type)
}

// decodeEvent decodes an envelope's data into a value of the event type E.
func decodeEvent[E Event](data json.RawMessage) (Event, error) {
	var e E
	err := json.Unmarshal(data, &e)
	return e, err
}
