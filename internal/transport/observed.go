package transport

// ObserveFunc sees one frame cross the transport: its endpoints, kind, and
// payload size. Observers must be cheap and non-blocking — they run on the
// sending goroutine (sends) or the delivery goroutine (receives).
type ObserveFunc func(from, to int, kind Kind, payloadLen int)

// Observed wraps a Transport with per-frame observation callbacks: onSend
// fires before every Send, onRecv before every handler invocation. The
// runtime uses it to emit transport events into the tracer without the
// transport implementations knowing about tracing. SetOnFail is forwarded,
// so an observed transport reports its failures like a bare one.
type Observed struct {
	inner  Transport
	onSend ObserveFunc
	onRecv ObserveFunc
}

// NewObserved wraps inner; either callback may be nil.
func NewObserved(inner Transport, onSend, onRecv ObserveFunc) *Observed {
	return &Observed{inner: inner, onSend: onSend, onRecv: onRecv}
}

// Processes returns the process count.
func (o *Observed) Processes() int { return o.inner.Processes() }

// SetHandler installs h, interposing the receive observer.
func (o *Observed) SetHandler(proc int, h Handler) {
	if o.onRecv == nil {
		o.inner.SetHandler(proc, h)
		return
	}
	o.inner.SetHandler(proc, func(from int, kind Kind, payload []byte) {
		o.onRecv(from, proc, kind, len(payload))
		h(from, kind, payload)
	})
}

// Send observes and forwards one frame.
func (o *Observed) Send(from, to int, kind Kind, payload []byte) {
	if o.onSend != nil {
		o.onSend(from, to, kind, len(payload))
	}
	o.inner.Send(from, to, kind, payload)
}

// SetOnFail forwards the failure callback to the inner transport, if it
// reports failures.
func (o *Observed) SetOnFail(f func(error)) {
	if fr, ok := o.inner.(FailReporter); ok {
		fr.SetOnFail(f)
	}
}

// Stats returns the inner transport's counters.
func (o *Observed) Stats() *Stats { return o.inner.Stats() }

// Close closes the inner transport.
func (o *Observed) Close() { o.inner.Close() }
