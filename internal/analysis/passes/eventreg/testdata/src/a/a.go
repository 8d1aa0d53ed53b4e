// Package a exercises eventreg: a sealed Event interface with an
// EventKind/UnmarshalEvent codec pair, with two registration gaps and one
// payload-tag gap.
package a

// Event is the sealed envelope interface.
type Event interface{ isEvent() }

// EventGood is fully registered: kind switch and decode switch.
type EventGood struct {
	N int `json:"n"`
}

// EventPtr is registered through its pointer form.
type EventPtr struct {
	S string `json:"s"`
}

type EventNoKind struct{} // want "event type EventNoKind implements Event but has no case in the EventKind type switch"

type EventNoDecode struct{} // want "event type EventNoDecode implements Event but is never constructed in UnmarshalEvent"

// EventPayload carries a nested payload struct: the tag check follows the
// field into Entry, but not through the json:"-" local-only field.
type EventPayload struct {
	Rows  []Entry    `json:"rows"`
	Local *Untracked `json:"-"`
	Loose float64    // want "wire event payload field EventPayload.Loose has no json tag"
}

// Entry is reachable wire payload: its fields need explicit tags too.
type Entry struct {
	Tagged   int `json:"tagged"`
	Untagged int // want "wire event payload field Entry.Untagged has no json tag"
	hidden   int //lint:ignore U1000 unexported fields never reach the wire and need no tag
}

// Untracked sits behind a json:"-" field, so its untagged field is fine.
type Untracked struct {
	NotWire int
}

func (EventGood) isEvent()     {}
func (*EventPtr) isEvent()     {}
func (EventNoKind) isEvent()   {}
func (EventNoDecode) isEvent() {}
func (EventPayload) isEvent()  {}

// NotAnEvent does not implement Event and is ignored, tags and all.
type NotAnEvent struct {
	Whatever int
}

// EventKind drives the encode switch.
func EventKind(e Event) string {
	switch e.(type) {
	case EventGood:
		return "good"
	case *EventPtr:
		return "ptr"
	case EventNoDecode:
		return "nodecode"
	case EventPayload:
		return "payload"
	}
	return ""
}

// UnmarshalEvent drives the decode switch.
func UnmarshalEvent(kind string) (Event, error) {
	switch kind {
	case "good":
		return EventGood{}, nil
	case "ptr":
		return &EventPtr{}, nil
	case "payload":
		return EventPayload{}, nil
	}
	return nil, nil
}
