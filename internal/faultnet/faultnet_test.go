package faultnet

import (
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections on ln and echoes bytes back.
func echoServer(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			io.Copy(c, c)
		}()
	}
}

// dial connects to addr and attaches fn's next fault stream to the
// connection.
func dial(fn *Network, addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return fn.Wrap(c), nil
}

func TestZeroConfigPassesTrafficThrough(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn := New(Config{Seed: 1})
	ln := fn.Listener(raw)
	defer ln.Close()
	go echoServer(ln)

	conn, err := dial(fn, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello, fault-free world")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("echoed %q, want %q", got, msg)
	}
	if s := fn.Stats(); s.Drops != 0 || s.PartialWrites != 0 {
		t.Errorf("zero config injected faults: %+v", s)
	}
}

func TestDropSeversConnection(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go echoServer(raw)

	fn := New(Config{Seed: 7, DropRate: 1})
	conn, err := dial(fn, raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("doomed")); err == nil {
		t.Fatal("write on a DropRate=1 conn should fail")
	}
	// The conn stays dead: later operations keep failing.
	if _, err := conn.Read(make([]byte, 4)); err == nil {
		t.Fatal("read after drop should fail")
	}
	if s := fn.Stats(); s.Drops == 0 {
		t.Errorf("drop not counted: %+v", s)
	}
}

func TestPartialWriteTruncates(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	recv := make(chan []byte, 1)
	go func() {
		c, err := raw.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		recv <- b
	}()

	fn := New(Config{Seed: 3, PartialWriteRate: 1})
	conn, err := dial(fn, raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("0123456789abcdef")
	n, err := conn.Write(msg)
	if err == nil {
		t.Fatal("partial write should report an error")
	}
	if n >= len(msg) {
		t.Fatalf("wrote %d bytes, want a strict prefix of %d", n, len(msg))
	}
	select {
	case got := <-recv:
		if len(got) >= len(msg) {
			t.Errorf("peer received %d bytes, want fewer than %d", len(got), len(msg))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the truncated stream close")
	}
	if s := fn.Stats(); s.PartialWrites == 0 {
		t.Errorf("partial write not counted: %+v", s)
	}
}

// Determinism: two Networks with the same seed inject faults at the same
// operation offsets on the same connection index.
func TestSameSeedSameFaultSequence(t *testing.T) {
	sequence := func(seed int64) []int {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		go echoServer(raw)
		fn := New(Config{Seed: seed, DropRate: 0.3})
		var fails []int
		for c := 0; c < 8; c++ {
			conn, err := dial(fn, raw.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 10; op++ {
				if _, err := conn.Write([]byte("x")); err != nil {
					fails = append(fails, c*100+op)
					break
				}
			}
			conn.Close()
		}
		return fails
	}
	a := sequence(42)
	b := sequence(42)
	if len(a) == 0 {
		t.Fatal("DropRate=0.3 over 80 ops injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("fault sequences differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at %d: %v vs %v", i, a, b)
		}
	}
	c := sequence(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestDelayInjectsLatency(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go echoServer(raw)

	fn := New(Config{Seed: 5, DelayRate: 1, Delay: 20 * time.Millisecond})
	conn, err := dial(fn, raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("write took %v, want ≥ 20ms injected delay", d)
	}
	if s := fn.Stats(); s.Delays == 0 {
		t.Errorf("delay not counted: %+v", s)
	}
}
