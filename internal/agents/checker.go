package agents

import (
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
)

// Candidate pairs a storage device with the DRL engine's predicted
// throughput for placing a file there.
type Candidate struct {
	Device    string
	Predicted float64
}

// Validator reports whether a device can currently receive a file of the
// given size; a non-nil error names the reason.
type Validator func(device string, size int64) error

// ActionChecker is "the last sanity check for file movements in case
// permissions or availability changes in the system" (§V-H). It removes
// invalid storage devices from the candidate list, picks the destination
// with the highest predicted throughput, and falls back to a random
// movement when every candidate is invalid — the paper's mechanism for
// keeping the availability picture fresh and continuing to learn.
type ActionChecker struct {
	// Rng drives the random fallback (and must be non-nil).
	Rng *rng.RNG
	// AllDevices is the universe the random fallback draws from.
	AllDevices []string
}

// NewActionChecker returns a checker drawing random fallbacks from devices.
func NewActionChecker(r *rng.RNG, devices []string) *ActionChecker {
	return &ActionChecker{Rng: r, AllDevices: devices}
}

// Filter returns the candidates that pass validation for a file of size
// bytes, preserving order.
func (a *ActionChecker) Filter(cands []Candidate, size int64, valid Validator) []Candidate {
	out := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if valid != nil && valid(c.Device, size) != nil {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Choose picks the destination for a file from the candidates that passed
// Filter: the one with the highest predicted throughput, or a uniformly
// random device when none passed. random reports whether the fallback
// fired; ok is false only when there is nowhere at all to go.
func (a *ActionChecker) Choose(passing []Candidate) (device string, random, ok bool) {
	if len(passing) > 0 {
		best := passing[0]
		for _, c := range passing[1:] {
			if c.Predicted > best.Predicted {
				best = c
			}
		}
		return best.Device, false, true
	}
	// "In case all storage devices are invalid, a random movement is
	// performed" (§V-H).
	if len(a.AllDevices) == 0 {
		return "", false, false
	}
	return a.AllDevices[a.Rng.Intn(len(a.AllDevices))], true, true
}

// ClusterValidator adapts a simulated cluster into a Validator: a device
// is valid when it exists, is available, is writable, and has room.
func ClusterValidator(c *storagesim.Cluster) Validator {
	return func(device string, size int64) error {
		d := c.Device(device)
		if d == nil {
			return errUnknownDevice(device)
		}
		if !d.Available {
			return errUnavailable(device)
		}
		if d.ReadOnly {
			return errReadOnly(device)
		}
		if d.Free() < size {
			return errFull(device)
		}
		return nil
	}
}

type checkerErr string

func (e checkerErr) Error() string { return string(e) }

func errUnknownDevice(d string) error { return checkerErr("agents: unknown device " + d) }
func errUnavailable(d string) error   { return checkerErr("agents: device unavailable " + d) }
func errReadOnly(d string) error      { return checkerErr("agents: device read-only " + d) }
func errFull(d string) error          { return checkerErr("agents: device full " + d) }
