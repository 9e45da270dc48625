// Package locksafe seeds violations and clean sites for the locksafe
// analyzer's fixture suite.
package locksafe

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
)

// Pool owns one connection serialized by a mutex.
type Pool struct {
	mu   sync.Mutex
	conn net.Conn
	wg   sync.WaitGroup
}

func (p *Pool) BadWrite(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.conn.Write(b) // want `network I/O \(net\.Conn\.Write\) while p\.mu is held`
	return err
}

func (p *Pool) GoodWrite(b []byte) error {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	_, err := conn.Write(b) // clean: lock released before the write
	return err
}

func (p *Pool) badSend(ch chan int) {
	p.mu.Lock()
	ch <- 1 // want `channel send while p\.mu is held`
	p.mu.Unlock()
}

func (p *Pool) writeLocked(b []byte) error {
	_, err := p.conn.Write(b) // want `while the caller's lock \(function is \*Locked\) is held`
	return err
}

func (p *Pool) allowedWrite(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	//geomancy:allow locksafe fixture: deadline-bounded serialization lock
	_, err := p.conn.Write(b) // clean: allowlisted with reason
	return err
}

func (p *Pool) Spawn() {
	go p.drain() // want `goroutine launched without a join`
}

func (p *Pool) SpawnJoined() {
	p.wg.Add(1)
	go func() { // clean: WaitGroup join
		defer p.wg.Done()
		p.drain()
	}()
}

func (p *Pool) SpawnDone() chan struct{} {
	done := make(chan struct{})
	go func() { // clean: done-channel join
		defer close(done)
		p.drain()
	}()
	return done
}

func (p *Pool) allowedSpawn() {
	//geomancy:allow locksafe fixture: fire-and-forget by design
	go p.drain() // clean: allowlisted with reason
}

func (p *Pool) drain() {}

// ship performs network I/O with no lock of its own: callers holding a
// lock inherit the finding transitively.
func (p *Pool) ship(b []byte) error {
	_, err := p.conn.Write(b)
	return err
}

// shipVia adds a second hop to the chain.
func (p *Pool) shipVia(b []byte) error { return p.ship(b) }

func (p *Pool) BadShip(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ship(b) // want `call to Pool\.ship transitively performs network I/O \(net\.Conn\.Write\) while p\.mu is held`
}

func (p *Pool) BadShipVia(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shipVia(b) // want `call to Pool\.shipVia transitively performs network I/O \(net\.Conn\.Write\) while p\.mu is held`
}

func (p *Pool) GoodShip(b []byte) error {
	p.mu.Lock()
	b = append([]byte(nil), b...)
	p.mu.Unlock()
	return p.ship(b) // clean: lock released before the transitive I/O
}

// auditedShip's I/O is allowlisted at the leaf, so no netIOFact
// propagates to its callers.
func (p *Pool) auditedShip(b []byte) error {
	//geomancy:allow locksafe fixture: deadline-bounded write reviewed at the leaf
	_, err := p.conn.Write(b)
	return err
}

func (p *Pool) CallsAudited(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.auditedShip(b) // clean: the reviewed leaf does not re-flag its callers
}

var _ = []any{(*Pool).badSend, (*Pool).writeLocked, (*Pool).allowedSpawn, (*Pool).allowedWrite}

// Framer reads length-prefixed frames as the agents' codec does: io.ReadFull
// over a buffered reader of a connection.
type Framer struct {
	mu   sync.Mutex
	br   *bufio.Reader
	conn net.Conn
}

func (f *Framer) BadReadFull(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := io.ReadFull(f.br, p) // want `network I/O \(io\.ReadFull over bufio\.Reader\) while f\.mu is held`
	return err
}

func (f *Framer) BadReadAtLeast(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := io.ReadAtLeast(f.conn, p, 1) // want `network I/O \(io\.ReadAtLeast over net\.Conn\) while f\.mu is held`
	return err
}

// frame reads with no lock of its own: a caller holding one inherits it.
func (f *Framer) frame(p []byte) error {
	_, err := io.ReadFull(f.br, p)
	return err
}

func (f *Framer) BadFrame(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frame(p) // want `call to Framer\.frame transitively performs network I/O \(io\.ReadFull over bufio\.Reader\) while f\.mu is held`
}

func (f *Framer) GoodReadFull(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := io.ReadFull(bytes.NewReader(p), p) // clean: an in-memory reader never waits on a peer
	return err
}
