package agents

import (
	"errors"
	"time"

	"geomancy/internal/rng"
	"geomancy/internal/telemetry"
)

// ErrUnavailable marks a transport failure that exhausted its retry
// budget: the daemon (or a control agent) is unreachable. Callers running
// in degraded mode match it with errors.Is and keep serving the last-known
// layout instead of aborting.
var ErrUnavailable = errors.New("agents: peer unavailable")

// unavailable wraps err so errors.Is(err, ErrUnavailable) holds while the
// underlying cause stays inspectable.
type unavailableError struct{ err error }

func (e unavailableError) Error() string { return e.err.Error() }

// Unavailable marks the error as a peer outage for callers that classify
// by behaviour instead of importing this package (core.Loop's fail-open
// mode), the way net.Error's Timeout does.
func (e unavailableError) Unavailable() bool { return true }
func (e unavailableError) Unwrap() []error {
	return []error{ErrUnavailable, e.err}
}

func markUnavailable(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrUnavailable) {
		return err
	}
	return unavailableError{err: err}
}

// RetryPolicy bounds every agent RPC: per-operation I/O deadlines, and an
// exponential-backoff retry budget with jitter for transient transport
// failures. The zero value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation (first attempt
	// included); default 4. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; default 5ms. Each
	// further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; default 500ms.
	MaxDelay time.Duration
	// Jitter is the uniform random fraction added to each backoff
	// (0 ≤ Jitter ≤ 1); default 0.2. Jitter decorrelates the retry storms
	// of many agents reconnecting to one daemon.
	Jitter float64
	// IOTimeout is the per-attempt read/write deadline on the socket;
	// default 5s. It is what turns a hung peer into a retryable error.
	IOTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.IOTimeout <= 0 {
		p.IOTimeout = 5 * time.Second
	}
	return p
}

// backoff computes the sleep before retry attempt (1-based), with jitter
// drawn from rng (nil rng = no jitter, for deterministic tests).
func (p RetryPolicy) backoff(attempt int, jitter *rng.RNG) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if jitter != nil && p.Jitter > 0 {
		d += time.Duration(float64(d) * p.Jitter * jitter.Float64())
	}
	return d
}

// options collects the knobs shared by every agent constructor.
type options struct {
	policy RetryPolicy
	reg    *telemetry.Registry
}

func buildOptions(opts []Option) options {
	o := options{policy: RetryPolicy{}.withDefaults()}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Option customizes an agent (Monitor, MonitorSet, RemoteStore, Control).
type Option func(*options)

// WithRetryPolicy overrides the default deadlines and retry budget.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(o *options) { o.policy = p.withDefaults() }
}

// WithMetrics reports the agent's retries, reconnects, and ack latency
// through reg.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// agentMetrics bundles the fault-tolerance instrumentation of one agent;
// nil handles no-op.
type agentMetrics struct {
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	ackLatency *telemetry.Histogram
}

// metricsFor resolves the handles for one agent kind ("monitor",
// "client", "control") from reg; a nil registry yields no-op handles.
func metricsFor(reg *telemetry.Registry, kind string) agentMetrics {
	return agentMetrics{
		retries:    reg.Counter(telemetry.MetricAgentRetriesTotal, telemetry.L("agent", kind)),
		reconnects: reg.Counter(telemetry.MetricAgentReconnectsTotal, telemetry.L("agent", kind)),
		ackLatency: reg.Histogram(telemetry.MetricAgentAckSeconds, telemetry.DefDurationBuckets, telemetry.L("agent", kind)),
	}
}
