package tso

import "fmt"

// EventKind classifies trace events.
type EventKind int

const (
	// EvStore records a store enqueued to a store buffer.
	EvStore EventKind = iota
	// EvCommit records a buffered store reaching memory.
	EvCommit
	// EvLoad records a completed load.
	EvLoad
	// EvRMW records a completed atomic read-modify-write.
	EvRMW
	// EvFence records a completed fence.
	EvFence
)

func (k EventKind) String() string {
	switch k {
	case EvStore:
		return "store"
	case EvCommit:
		return "commit"
	case EvLoad:
		return "load"
	case EvRMW:
		return "rmw"
	case EvFence:
		return "fence"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// DrainCause explains WHY a buffered store was dequeued to memory. It
// is carried by every EvCommit event and mirrored in Stats.Drains; the
// breakdown is the observable face of the model's drain rules — a
// Δ-forced dequeue is the temporal bound doing its job, a fence or RMW
// drain is synchronization paying for visibility, and a policy drain
// is the memory subsystem volunteering.
type DrainCause int

const (
	// CauseDelta is a dequeue forced by the Δ bound (the store's
	// deadline was within DrainMargin ticks).
	CauseDelta DrainCause = iota
	// CausePolicy is a voluntary dequeue per the configured DrainPolicy.
	CausePolicy
	// CauseFence is a dequeue performed to complete a Fence.
	CauseFence
	// CauseRMW is a dequeue performed under the memory-subsystem lock
	// ahead of an atomic read-modify-write.
	CauseRMW
	// CauseCapacity is a dequeue forced by a full TSO[S] buffer making
	// room for an incoming store.
	CauseCapacity
	// CauseInterrupt is a dequeue performed by a §6.2 timer interrupt
	// (Config.TickPeriod), which drains the whole buffer.
	CauseInterrupt
	// CauseFinal is the end-of-run flush after every thread finished.
	CauseFinal

	// NumDrainCauses is the number of distinct causes (for sizing
	// per-cause tables).
	NumDrainCauses = int(CauseFinal) + 1
)

func (c DrainCause) String() string {
	switch c {
	case CauseDelta:
		return "delta"
	case CausePolicy:
		return "policy"
	case CauseFence:
		return "fence"
	case CauseRMW:
		return "rmw"
	case CauseCapacity:
		return "capacity"
	case CauseInterrupt:
		return "interrupt"
	case CauseFinal:
		return "final"
	default:
		return fmt.Sprintf("DrainCause(%d)", int(c))
	}
}

// Event is one entry of an execution trace.
type Event struct {
	Tick   uint64
	Thread int
	Kind   EventKind
	Addr   Addr
	Val    Word
	// Cause is meaningful for EvCommit events only: why the store was
	// dequeued.
	Cause DrainCause
	// Enq is meaningful for EvCommit events only: the tick at which the
	// committing store was enqueued, so Tick-Enq is the store's commit
	// latency.
	Enq uint64
	// FromBuf is meaningful for EvLoad events only: the value was
	// forwarded from the thread's own store buffer, so the load did not
	// touch memory. It is not rendered by String.
	FromBuf bool
}

func (e Event) String() string {
	switch e.Kind {
	case EvFence:
		return fmt.Sprintf("t=%d T%d %s", e.Tick, e.Thread, e.Kind)
	case EvCommit:
		return fmt.Sprintf("t=%d T%d %s [%d]=%d (%s, lat=%d)", e.Tick, e.Thread, e.Kind, e.Addr, e.Val, e.Cause, e.Tick-e.Enq)
	default:
		return fmt.Sprintf("t=%d T%d %s [%d]=%d", e.Tick, e.Thread, e.Kind, e.Addr, e.Val)
	}
}

// Sink consumes the machine's event stream. Sinks are invoked
// synchronously from the machine's scheduling goroutine — never
// concurrently — in attachment order. A sink must not call back into
// the machine.
//
// Implementations that sit on the model's hot path should be
// allocation-free per event (see internal/obs for ring-buffer,
// metrics and Perfetto sinks).
type Sink interface {
	Emit(Event)
}

// RunObserver is an optional extension a Sink may implement to learn
// the run's shape before the first event: thread names (index = thread
// id) and the configured Δ. The machine calls it once at the start of
// Run.
type RunObserver interface {
	BeginRun(threadNames []string, delta uint64)
}

// Recorder is a Sink that keeps the whole event stream in order: the
// execution trace of a run. Attach it like any other sink (Config.Sinks
// or AttachSink) and read Events after the run returns.
type Recorder struct {
	Events []Event
}

// Emit implements Sink.
//
//tbtso:fencefree
func (r *Recorder) Emit(e Event) { r.Events = append(r.Events, e) }

// AttachSink registers an additional event sink. It may only be called
// before Run.
func (m *Machine) AttachSink(s Sink) {
	if m.started {
		panic("tso: AttachSink after Run")
	}
	m.sinks = append(m.sinks, s)
}

// emit streams one event to every attached sink. Call sites guard with
// len(m.sinks) so that constructing the Event is the only cost — and
// with no sink attached the event path performs no work and no
// allocation at all (asserted by TestNoSinkZeroAlloc).
func (m *Machine) emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}
