package agents

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// FuzzEnvelopeDecode feeds arbitrary bytes to the two places the plane
// reads a socket — the codec every agent session reads replies through,
// and the daemon's serve loop — over a net.Pipe. Neither may panic. The
// codec stops at the first frame that is malformed, oversized or of
// another version with ErrFrame / ErrVersion (never an untyped error, and
// never having buffered more than the peer sent plus one doubling); a
// stream that ends between frames is io.EOF and one that ends inside a
// frame io.ErrUnexpectedEOF; and every frame it accepts re-encodes to the
// very bytes it was decoded from. The daemon must answer or drop, count a
// refused frame as an error, and return once the peer is gone with no
// control agent left registered.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The agents' read path.
		c := newCodec(pipeFrom(t, data))
		rest := data
		refused := false
		for i := 0; ; i++ {
			var env Envelope
			err := c.read(&env, time.Time{})
			if cap(c.frame) > 2*len(data)+2*readChunk {
				t.Fatalf("frame buffer grew to %d bytes for a %d-byte stream", cap(c.frame), len(data))
			}
			if err != nil {
				switch {
				case errors.Is(err, ErrFrame) || errors.Is(err, ErrVersion):
					refused = true
				case err == io.EOF:
					if len(rest) != 0 {
						t.Fatalf("clean EOF at frame %d with %d bytes undecoded", i, len(rest))
					}
				case err == io.ErrUnexpectedEOF:
					if len(rest) == 0 {
						t.Fatalf("frame %d: unexpected EOF at a frame boundary", i)
					}
				default:
					t.Fatalf("frame %d: untyped error %v", i, err)
				}
				break
			}
			n := 4 + int(binary.LittleEndian.Uint32(rest))
			if again := appendEnvelope(nil, &env); !bytes.Equal(again, rest[:n]) {
				t.Fatalf("frame %d (%s) re-encodes to %x, came from %x", i, env.Type, again, rest[:n])
			}
			rest = rest[n:]
		}

		// The daemon's serve loop: it must answer or drop, and return once
		// the peer is gone.
		db, err := replaydb.Open(replaydb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		d := NewDaemon(db)
		reg := telemetry.NewRegistry()
		d.SetMetrics(reg)
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
		if refused && reg.Counter(telemetry.MetricDaemonErrorsTotal).Value() == 0 {
			t.Error("the daemon refused a frame without counting an error")
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
