package agents

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
)

// startDaemon spins up a daemon on a loopback port.
func startDaemon(t *testing.T) (*Daemon, *replaydb.DB, string) {
	t.Helper()
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(db)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		db.Close()
	})
	return d, db, addr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sampleResult(dev string, i int) storagesim.AccessResult {
	return storagesim.AccessResult{
		FileID:     int64(i + 1),
		Path:       "/belle2/f.root",
		Device:     dev,
		BytesRead:  1000,
		Start:      float64(i),
		End:        float64(i) + 0.5,
		OpenTS:     int64(i),
		CloseTS:    int64(i),
		CloseTMS:   500,
		Throughput: 2000,
	}
}

func TestMonitorShipsBatches(t *testing.T) {
	_, db, addr := startDaemon(t)
	m, err := NewMonitor(addr, "pic", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i := 0; i < 3; i++ {
		if err := m.Observe(sampleResult("pic", i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if m.Pending() != 3 {
		t.Errorf("pending = %d, want 3 (below batch size)", m.Pending())
	}
	// Fourth access fills the batch and ships it.
	if err := m.Observe(sampleResult("pic", 3), 1, 0); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 {
		t.Errorf("pending = %d after batch flush, want 0", m.Pending())
	}
	waitFor(t, "daemon to store batch", func() bool { return db.Len() == 4 })

	// Accesses on other devices are ignored.
	if err := m.Observe(sampleResult("file0", 9), 1, 0); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 {
		t.Error("monitor buffered an access for a foreign device")
	}
}

func TestMonitorFlushAndRecordFidelity(t *testing.T) {
	_, db, addr := startDaemon(t)
	m, err := NewMonitor(addr, "var", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := sampleResult("var", 7)
	if err := m.Observe(res, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "record stored", func() bool { return db.Len() == 1 })
	rec := db.All()[0]
	if rec.Device != "var" || rec.FileID != 8 || rec.Workload != 2 || rec.Run != 5 {
		t.Errorf("stored record = %+v", rec)
	}
	if rec.Throughput != res.Throughput || rec.CloseTMS != res.CloseTMS {
		t.Errorf("telemetry mangled: %+v", rec)
	}
	// The wire shape cannot drift from the local one: a report's record is
	// the direct conversion, and so is what the daemon stored (modulo the
	// sequence number the database assigns).
	direct := replaydb.FromAccess(res, 2, 5)
	if got := ReportFromAccess(res, 2, 5).ToRecord(); got != direct {
		t.Errorf("ReportFromAccess(...).ToRecord() = %+v, want the direct conversion %+v", got, direct)
	}
	rec.Seq = 0
	if rec != direct {
		t.Errorf("stored record %+v != direct conversion %+v", rec, direct)
	}
}

func TestMonitorSetFansOut(t *testing.T) {
	_, db, addr := startDaemon(t)
	set, err := NewMonitorSet(addr, []string{"pic", "var"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	set.Observe(sampleResult("pic", 0), 1, 0)
	set.Observe(sampleResult("var", 1), 1, 0)
	set.Observe(sampleResult("file0", 2), 1, 0) // nobody watches file0
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both records stored", func() bool { return db.Len() == 2 })
	devs := map[string]bool{}
	for _, r := range db.All() {
		devs[r.Device] = true
	}
	if !devs["pic"] || !devs["var"] || devs["file0"] {
		t.Errorf("stored devices = %v", devs)
	}
}

func TestControlAppliesLayout(t *testing.T) {
	d, _, addr := startDaemon(t)

	var mu sync.Mutex
	location := map[int64]string{1: "pic", 2: "pic", 3: "file0"}
	mover := func(id int64, dev string) (bool, error) {
		mu.Lock()
		defer mu.Unlock()
		if location[id] == dev {
			return false, nil
		}
		location[id] = dev
		return true, nil
	}
	ctrl, err := NewControl(addr, mover)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	waitFor(t, "control registration", func() bool { return d.ControlCount() == 1 })

	moved, err := d.PushLayout(map[int64]string{1: "file0", 2: "pic", 3: "var"})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Errorf("moved = %d, want 2 (file 2 already in place)", moved)
	}
	mu.Lock()
	if location[1] != "file0" || location[3] != "var" {
		t.Errorf("layout not applied: %v", location)
	}
	mu.Unlock()
	if ctrl.Applied() != 2 {
		t.Errorf("Applied = %d, want 2", ctrl.Applied())
	}
}

func TestControlReportsMoverErrors(t *testing.T) {
	d, _, addr := startDaemon(t)
	mover := func(id int64, dev string) (bool, error) {
		if id == 2 {
			return false, fmt.Errorf("disk on fire")
		}
		return true, nil
	}
	ctrl, err := NewControl(addr, mover)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	waitFor(t, "control registration", func() bool { return d.ControlCount() == 1 })

	moved, err := d.PushLayout(map[int64]string{1: "a", 2: "b", 3: "c"})
	if err == nil {
		t.Fatal("PushLayout should surface the mover error")
	}
	_ = moved
	// The other files still moved.
	if ctrl.Applied() != 2 {
		t.Errorf("Applied = %d, want 2 despite one failure", ctrl.Applied())
	}
}

func TestPushLayoutWithoutControls(t *testing.T) {
	d, _, _ := startDaemon(t)
	if _, err := d.PushLayout(map[int64]string{1: "x"}); err == nil {
		t.Error("PushLayout with no control agents should error")
	}
}

// TestRemoteStoreWalksInPlace: the store's window walk hands fn the same
// records, in the same order, as the copying queries, for a device and for
// a file, from several goroutines at once, and copies none of them.
func TestRemoteStoreWalksInPlace(t *testing.T) {
	_, db, addr := startDaemon(t)
	for i := 0; i < 400; i++ {
		db.AppendAccess(replaydb.AccessRecord{Time: float64(i), Device: []string{"pic", "var"}[i%2], FileID: int64(i % 3), Throughput: float64(i)})
	}
	cl, err := DialRemoteStore(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var walker interface {
		EachRecentByDevice(device string, n int, fn func(*replaydb.AccessRecord))
		EachRecentByFile(fileID int64, n int, fn func(*replaydb.AccessRecord))
	} = cl
	var walked []replaydb.AccessRecord
	collect := func(rec *replaydb.AccessRecord) { walked = append(walked, *rec) }
	walker.EachRecentByDevice("pic", 150, collect)
	if want := cl.RecentByDevice("pic", 150); len(want) != 150 || !reflect.DeepEqual(walked, want) {
		t.Fatalf("device walk saw %d records, the copy holds %d, or they differ", len(walked), len(want))
	}
	walked = nil
	walker.EachRecentByFile(2, 100, collect)
	if want := cl.RecentByFile(2, 100); len(want) != 100 || !reflect.DeepEqual(walked, want) {
		t.Fatalf("file walk saw %d records, the copy holds %d, or they differ", len(walked), len(want))
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}

	// Walks from several goroutines at once, as the engine's workers make
	// them, each see their own reply whole.
	want := cl.RecentByDevice("pic", 150)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var got []replaydb.AccessRecord
				walker.EachRecentByDevice("pic", 150, func(rec *replaydb.AccessRecord) { got = append(got, *rec) })
				if !reflect.DeepEqual(got, want) {
					t.Errorf("a concurrent walk saw %d records, not the window's %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()

	// The daemon's side of a query allocates what it allocates either way;
	// the walk must save the client's copies.
	grew := func(query func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	walk := func() { walker.EachRecentByDevice("var", 200, func(*replaydb.AccessRecord) {}) }
	copied := func() { cl.RecentByDevice("var", 200) }
	grew(walk) // the codec's buffers reach their size
	walks, copies := grew(walk), grew(copied)
	if saved, want := int64(copies)-int64(walks), int64(20*200*unsafe.Sizeof(replaydb.AccessRecord{})); saved < want*3/4 {
		t.Errorf("20 walks of 200 records allocated %d bytes, 20 copying queries %d: the walk saves %d of the copies' %d", walks, copies, saved, want)
	}
}

func TestControlRequiresMover(t *testing.T) {
	if _, err := NewControl("127.0.0.1:1", nil); err == nil {
		t.Error("nil mover should be rejected")
	}
}

func TestClientRecentQuery(t *testing.T) {
	_, db, addr := startDaemon(t)
	for i := 0; i < 10; i++ {
		dev := "pic"
		if i%2 == 0 {
			dev = "var"
		}
		db.AppendAccess(replaydb.AccessRecord{Time: float64(i), Device: dev, FileID: int64(i), Throughput: float64(i * 100)})
	}
	cl, err := DialRemoteStore(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	recs, err := cl.query(Envelope{Type: TypeRecentQuery, Device: "pic", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Time != 5 || recs[2].Time != 9 {
		t.Errorf("wrong window: %v .. %v", recs[0].Time, recs[2].Time)
	}

	// Sequential queries on one connection keep working.
	again, err := cl.query(Envelope{Type: TypeRecentQuery, Device: "var", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 {
		t.Errorf("second query returned %d, want 2", len(again))
	}
}

// TestDaemonRefusesUnanswerableRecentQuery: a recent query that names
// neither a file nor a device, or asks for more records than the database
// retains, gets a TypeError — never a scan of the whole log, a panic, or a
// silently shorter window — and the connection keeps serving.
func TestDaemonRefusesUnanswerableRecentQuery(t *testing.T) {
	db, err := replaydb.Open(replaydb.Options{Horizon: replaydb.Horizon{PerDevice: 4, PerFile: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.AppendAccess(replaydb.AccessRecord{Time: float64(i), Device: "pic", FileID: 1})
	}
	d := NewDaemon(db)
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := framePeer(t, addr)
	ask := func(q Envelope) Envelope {
		t.Helper()
		q.Type = TypeRecentQuery
		if err := c.write(&q, time.Time{}); err != nil {
			t.Fatal(err)
		}
		var reply Envelope
		if err := c.read(&reply, time.Now().Add(5*time.Second)); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	for _, q := range []Envelope{{N: 5}, {Device: "pic", N: 5}, {FileID: 1, N: 3}} {
		if reply := ask(q); reply.Type != TypeError {
			t.Errorf("query %+v: reply %+v, want a TypeError", q, reply)
		}
	}
	if reply := ask(Envelope{ID: 7, Device: "pic", N: 4}); reply.Type != TypeRecentReply || reply.ID != 7 || len(reply.Reports) != 4 {
		t.Errorf("in-horizon query after the refusals: reply %+v, want 4 records", reply)
	}
}

// TestDaemonRefusesNonFiniteReport: a telemetry batch with one NaN report
// gets a TypeError naming replaydb's refusal, and none of it is stored —
// not even the valid report in front of it, so a replay of the batch
// cannot count that one twice. A single such report used to reach the
// training window and turn every fit over it into NaN.
func TestDaemonRefusesNonFiniteReport(t *testing.T) {
	_, db, addr := startDaemon(t)
	c := framePeer(t, addr)
	good := replaydb.AccessRecord{Time: 1, Device: "pic", FileID: 1, BytesRead: 10, Throughput: 5}
	bad := good
	bad.Throughput = math.NaN()
	if err := c.write(&Envelope{Type: TypeMetrics, ID: 1, From: "pic", Reports: []replaydb.AccessRecord{good, bad}}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var reply Envelope
	if err := c.read(&reply, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Error, replaydb.ErrInvalidRecord.Error()) {
		t.Errorf("reply = %+v, want a TypeError naming the invalid record", reply)
	}
	if n := db.Len(); n != 0 {
		t.Errorf("Len = %d after the refused batch, want 0", n)
	}
}

func TestDaemonRejectsUnknownType(t *testing.T) {
	_, _, addr := startDaemon(t)
	c := framePeer(t, addr)
	if err := c.write(&Envelope{Type: 0xEE}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var reply Envelope
	if err := c.read(&reply, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError {
		t.Errorf("reply = %+v, want error", reply)
	}
}

// End-to-end: workload accesses flow through monitoring agents into the
// ReplayDB while a control agent applies a layout mid-stream.
func TestAgentsEndToEnd(t *testing.T) {
	d, db, addr := startDaemon(t)
	cluster := storagesim.NewBluesky(6)
	files := trace.BelleFileSet(6)
	for i, f := range files {
		dev := cluster.DeviceNames()[i%6]
		if err := cluster.PlaceFile(f.ID, f.Path, f.Size, dev); err != nil {
			t.Fatal(err)
		}
	}
	set, err := NewMonitorSet(addr, cluster.DeviceNames(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ctrl, err := NewControl(addr, func(id int64, dev string) (bool, error) {
		mv, err := cluster.Move(id, dev)
		if err != nil {
			return false, err
		}
		return mv.From != mv.To, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	waitFor(t, "control registration", func() bool { return d.ControlCount() == 1 })

	for i := 0; i < 100; i++ {
		f := files[i%len(files)]
		res, err := cluster.Access(f.ID, f.Size/2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Observe(res, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all telemetry stored", func() bool { return db.Len() == 100 })

	moved, err := d.PushLayout(map[int64]string{files[0].ID: "file0", files[1].ID: "file0"})
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("push moved nothing")
	}
	layout := cluster.Layout()
	if layout[files[0].ID] != "file0" || layout[files[1].ID] != "file0" {
		t.Errorf("layout not applied: %v", layout)
	}
}

func TestRemoteStoreServesTelemetry(t *testing.T) {
	_, db, addr := startDaemon(t)
	for i := 0; i < 20; i++ {
		dev := "pic"
		if i%2 == 0 {
			dev = "var"
		}
		db.AppendAccess(replaydb.AccessRecord{Time: float64(i), Device: dev, FileID: int64(i%4 + 1), Throughput: float64(i)})
	}
	store, err := DialRemoteStore(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	byDev := store.RecentByDevice("pic", 5)
	if len(byDev) != 5 {
		t.Fatalf("RecentByDevice = %d records, want 5", len(byDev))
	}
	for _, r := range byDev {
		if r.Device != "pic" {
			t.Fatalf("wrong device %q", r.Device)
		}
	}
	byFile := store.RecentByFile(2, 100)
	if len(byFile) != 5 {
		t.Fatalf("RecentByFile = %d records, want 5", len(byFile))
	}
	for i := 1; i < len(byFile); i++ {
		if byFile[i].Time < byFile[i-1].Time {
			t.Fatal("records out of order")
		}
	}
	if err := store.Err(); err != nil {
		t.Errorf("unexpected transport error: %v", err)
	}
}

func TestRemoteStoreSurfacesTransportErrors(t *testing.T) {
	d, _, addr := startDaemon(t)
	store, err := DialRemoteStore(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d.Close() // kill the daemon under the store
	if got := store.RecentByDevice("pic", 5); got != nil {
		t.Errorf("dead daemon returned records: %v", got)
	}
	if err := store.Err(); err == nil {
		t.Error("transport error not retained")
	}
	if err := store.Err(); err != nil {
		t.Error("Err should clear after reading")
	}
}
