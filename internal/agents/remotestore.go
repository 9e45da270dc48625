package agents

import (
	"fmt"

	"geomancy/internal/replaydb"
)

// RemoteStore is a core.TelemetryStore served over the Interface Daemon's
// wire protocol: the DRL engine's training-data path of Fig. 2, where
// "the DRL engine requests training data from the ReplayDB via the
// Interface Daemon" (§V-E). It lets the engine run in a separate process
// from the database.
//
// Queries are idempotent reads, so the session's failure model applies
// unchanged: each runs under the I/O deadline, transport failures redial
// and repeat it, and stale replies are drained by ID. The TelemetryStore
// interface has no error returns (the local DB cannot fail); a failed
// query therefore surfaces as an empty result, with the last error
// retained for inspection via Err.
type RemoteStore struct {
	s       *session // s.mu also guards the fields below
	next    uint64   // query ID counter
	lastErr error
}

// DialRemoteStore connects a query session to the daemon at addr.
//
//geomancy:allow ctxflow constructor dial is deadline-bounded by RetryPolicy.IOTimeout; no caller context exists yet
func DialRemoteStore(addr string, opts ...Option) (*RemoteStore, error) {
	r := &RemoteStore{s: newSession(addr, "client", 1009, opts)}
	if _, err := r.s.connectLocked(); err != nil {
		return nil, fmt.Errorf("agents: client dial: %w", err)
	}
	return r, nil
}

// RecentByDevice implements core.TelemetryStore over the wire: the n most
// recent accesses on a device, oldest first.
func (r *RemoteStore) RecentByDevice(device string, n int) []replaydb.AccessRecord {
	recs, _ := r.query(Envelope{Type: TypeRecentQuery, Device: device, N: n})
	return recs
}

// RecentByFile implements core.TelemetryStore over the wire: the n most
// recent accesses of one file, oldest first.
func (r *RemoteStore) RecentByFile(fileID int64, n int) []replaydb.AccessRecord {
	recs, _ := r.query(Envelope{Type: TypeRecentQuery, FileID: fileID, N: n})
	return recs
}

// EachRecentByDevice hands the n most recent accesses on a device, oldest
// first, to fn in place: each record is the one the codec decoded the
// reply into, and fn runs under the session lock, so — as with the local
// database's walk — fn must not call back into the store nor keep the
// pointer. A failed query walks nothing (see Err).
func (r *RemoteStore) EachRecentByDevice(device string, n int, fn func(*replaydb.AccessRecord)) {
	r.walk(Envelope{Type: TypeRecentQuery, Device: device, N: n}, eachRecord(fn))
}

// EachRecentByFile is EachRecentByDevice for the n most recent accesses of
// one file.
func (r *RemoteStore) EachRecentByFile(fileID int64, n int, fn func(*replaydb.AccessRecord)) {
	r.walk(Envelope{Type: TypeRecentQuery, FileID: fileID, N: n}, eachRecord(fn))
}

func eachRecord(fn func(*replaydb.AccessRecord)) func([]replaydb.AccessRecord) {
	return func(recs []replaydb.AccessRecord) {
		for i := range recs {
			fn(&recs[i])
		}
	}
}

// query runs one recent-window request and returns a copy of its records.
func (r *RemoteStore) query(req Envelope) ([]replaydb.AccessRecord, error) {
	var out []replaydb.AccessRecord
	err := r.walk(req, func(recs []replaydb.AccessRecord) {
		out = append([]replaydb.AccessRecord(nil), recs...)
	})
	return out, err
}

// walk runs one recent-window request and, if it succeeds, use over the
// reply's records. They borrow the connection's buffers, so use runs under
// the session lock, before the next request can reuse them. The error is
// also retained for Err.
func (r *RemoteStore) walk(req Envelope, use func([]replaydb.AccessRecord)) error {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	r.next++
	req.ID = r.next
	reply, err := r.s.callLocked(&req, TypeRecentReply)
	if err != nil {
		r.lastErr = fmt.Errorf("agents: client query: %w", err)
		return r.lastErr
	}
	use(reply.Reports)
	return nil
}

// Err returns the most recent query error, if any, and clears it.
func (r *RemoteStore) Err() error {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	err := r.lastErr
	r.lastErr = nil
	return err
}

// Close releases the connection.
func (r *RemoteStore) Close() error { return r.s.close() }
