package agents

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"geomancy/internal/replaydb"
)

// FuzzEnvelopeDecode feeds arbitrary bytes to the two places the plane
// reads a socket — the codec every agent session reads replies through,
// and the daemon's serve loop — over a net.Pipe. Neither may panic; a
// malformed frame must surface as an error (which drops the connection)
// exactly where a reference decoder stops; and every report in a
// well-formed frame must survive Report → AccessRecord → Report and a
// second trip over the wire unchanged.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The agents' read path.
		var want []Envelope
		ref := json.NewDecoder(bytes.NewReader(data))
		var refErr error
		for {
			var env Envelope
			if refErr = ref.Decode(&env); refErr != nil {
				break
			}
			want = append(want, env)
		}
		c := newCodec(pipeFrom(t, data))
		for i := 0; ; i++ {
			var env Envelope
			err := c.read(&env, time.Time{})
			if err != nil {
				if i != len(want) || (err == io.EOF) != (refErr == io.EOF) {
					t.Fatalf("codec stopped at frame %d with %v; reference stopped at %d with %v", i, err, len(want), refErr)
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("codec decoded frame %d past the reference's %d", i, len(want))
			}
			var wire bytes.Buffer
			if err := json.NewEncoder(&wire).Encode(&env); err != nil {
				t.Fatalf("re-encoding frame %d: %v", i, err)
			}
			var again Envelope
			if err := json.Unmarshal(wire.Bytes(), &again); err != nil {
				t.Fatalf("re-decoding frame %d: %v", i, err)
			}
			if len(again.Reports) != len(env.Reports) {
				t.Fatalf("frame %d re-decoded with %d reports, want %d", i, len(again.Reports), len(env.Reports))
			}
			for j, rep := range env.Reports {
				rec := rep.ToRecord()
				if ReportFromRecord(rec) != rep || again.Reports[j].ToRecord() != rec {
					t.Fatalf("frame %d report %d did not round-trip: %+v", i, j, rep)
				}
			}
		}

		// The daemon's serve loop: it must answer or drop, and return once
		// the peer is gone.
		db, err := replaydb.Open(replaydb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		d := NewDaemon(db)
		d.wg.Add(1)
		served := make(chan struct{})
		go func() {
			d.serve(pipeFrom(t, data))
			close(served)
		}()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not return after the peer closed")
		}
		if n := d.ControlCount(); n != 0 {
			t.Errorf("%d control agents still registered after the connection ended", n)
		}
	})
}

// pipeFrom returns the reading end of a net.Pipe whose peer writes data,
// discards whatever is written back, and closes.
func pipeFrom(t *testing.T, data []byte) net.Conn {
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close() })
	go io.Copy(io.Discard, far)
	go func() {
		far.Write(data)
		far.Close()
	}()
	return near
}
