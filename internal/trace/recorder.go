package trace

import "sdsrp/internal/obs"

// ContactRecorder is an obs.Tracer that folds a run's contact_up and
// contact_down events into the finished contacts, in the order they ended:
// the list WriteContacts exports as a replayable contact trace. Links still
// up when the run stops are not included. Every other event is ignored.
type ContactRecorder struct {
	up       map[[2]int]float64
	contacts []Contact
}

// NewContactRecorder returns an empty recorder.
func NewContactRecorder() *ContactRecorder {
	return &ContactRecorder{up: make(map[[2]int]float64)}
}

// Emit implements obs.Tracer.
func (r *ContactRecorder) Emit(ev obs.Event) {
	k := [2]int{ev.Node, ev.Peer}
	switch ev.Type {
	case obs.ContactUp:
		r.up[k] = ev.T
	case obs.ContactDown:
		if start, ok := r.up[k]; ok {
			delete(r.up, k)
			r.contacts = append(r.contacts, Contact{A: ev.Node, B: ev.Peer, Start: start, End: ev.T})
		}
	}
}

// Contacts returns the finished contacts recorded so far.
func (r *ContactRecorder) Contacts() []Contact { return r.contacts }
