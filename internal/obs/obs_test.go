package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestTypeTextRoundTrip(t *testing.T) {
	for typ := Type(1); typ < numTypes; typ++ {
		b, err := typ.MarshalText()
		if err != nil {
			t.Fatalf("marshal %d: %v", typ, err)
		}
		var back Type
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if back != typ {
			t.Fatalf("round trip %d -> %q -> %d", typ, b, back)
		}
	}
	var bad Type
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("unknown type name must be an error")
	}
	if _, err := Type(0).MarshalText(); err == nil {
		t.Fatal("zero type must not marshal")
	}
}

func TestAtSentinels(t *testing.T) {
	ev := At(FrameBatch, 7)
	if ev.Tick != 7 || ev.Node != -1 || ev.Slot != -1 || ev.From != -1 || ev.To != -1 || ev.Shard != -1 {
		t.Fatalf("At() sentinel mismatch: %+v", ev)
	}
	if ev.Round != 0 || ev.Frames != 0 || ev.Bytes != 0 || ev.Gear != "" || ev.Note != "" {
		t.Fatalf("At() non-id fields must be zero: %+v", ev)
	}
}

func TestChaosClassification(t *testing.T) {
	chaos := []Type{ChaosDrop, ChaosLate, ChaosDelay, ChaosCut, ChaosReorder,
		PartitionStart, PartitionHeal, CrashStart, CrashEnd}
	for _, typ := range chaos {
		if !typ.Chaos() {
			t.Errorf("%v should classify as chaos", typ)
		}
	}
	for _, typ := range []Type{TickStart, SlotOpen, GearResolved, SlotCommitted, FrameBatch, Diverged} {
		if typ.Chaos() {
			t.Errorf("%v should not classify as chaos", typ)
		}
	}
}

func TestRingBounded(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		ev := At(TickStart, i)
		r.Emit(ev)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Tick != want {
			t.Fatalf("event %d tick = %d, want %d (oldest-first ordering)", i, ev.Tick, want)
		}
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(At(TickStart, i))
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 800 {
		t.Fatalf("total = %d, want 800", got)
	}
	if got := len(r.Events()); got != 64 {
		t.Fatalf("retained = %d, want 64", got)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("empty tee must be nil (tracing off)")
	}
	a, b := NewRing(8), NewRing(8)
	if got := Tee(nil, a); got != Tracer(a) {
		t.Fatal("single live member should be returned directly")
	}
	tr := Tee(a, nil, b)
	tr.Emit(At(TickStart, 1))
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("tee fan-out: a=%d b=%d, want 1/1", a.Total(), b.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	want := []Event{
		At(TickStart, 1),
		{Type: ChaosDrop, Tick: 3, Node: -1, Slot: 5, From: 2, To: 6},
		{Type: GearResolved, Tick: 4, Node: 0, Slot: 2, Round: 5, From: -1, To: -1, Gear: "exp"},
		{Type: Aborted, Tick: 9, Node: -1, Slot: -1, From: -1, To: -1, Note: "boom"},
	}
	for _, ev := range want {
		j.Emit(ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestJSONLFieldNames(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Type: ChaosDrop, Tick: 3, Node: -1, Slot: 5, From: 2, To: 6})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["ev"] != "drop" {
		t.Fatalf(`ev = %v, want "drop"`, m["ev"])
	}
	for _, k := range []string{"tick", "slot", "from", "to"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("field %q missing from %s", k, buf.String())
		}
	}
	if _, ok := m["gear"]; ok {
		t.Fatal("empty gear should be omitted")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{\"ev\":\"nope\",\"tick\":1}\n")); err == nil {
		t.Fatal("unknown event type must fail the parse")
	}
	if _, err := ReadJSONL(bytes.NewBufferString("not json\n")); err == nil {
		t.Fatal("malformed line must fail the parse")
	}
	if _, err := ReadJSONL(bytes.NewBufferString("{\"tick\":1}\n")); err == nil {
		t.Fatal("missing type must fail the parse")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	for i := 0; i < 100; i++ {
		h.Observe(4)
	}
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %d, want 4", got)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("p99 = %d, want 4 (100/101 samples at 4)", got)
	}
	s := h.Summarize()
	if s.Count != 101 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 4 {
		t.Fatalf("summary p50 = %d, want 4", s.P50)
	}
}

// TestHistogramQuantilesNeverExceedMax: a sample in the (12, 16] bucket
// must not read back as the bucket's bound 16 when nothing above 14 was
// observed.
func TestHistogramQuantilesNeverExceedMax(t *testing.T) {
	var h Histogram
	for v := 1; v <= 14; v++ {
		h.Observe(v)
	}
	s := h.Summarize()
	if s.Max != 14 {
		t.Fatalf("max = %d, want 14", s.Max)
	}
	for _, q := range []struct {
		name string
		got  int
	}{{"p50", s.P50}, {"p90", s.P90}, {"p99", s.P99}} {
		if q.got > s.Max {
			t.Errorf("%s = %d exceeds the observed max %d", q.name, q.got, s.Max)
		}
	}
	if s.P50 != 8 || s.P99 != 14 {
		t.Errorf("p50/p99 = %d/%d, want 8/14 (bucket bound, then the clamp)", s.P50, s.P99)
	}
}

func TestHistogramOverflowAndMerge(t *testing.T) {
	var h Histogram
	h.Observe(5000) // beyond the last bound
	if got := h.Quantile(0.99); got != 5000 {
		t.Fatalf("overflow quantile = %d, want observed max 5000", got)
	}
	var other Histogram
	for i := 0; i < 9; i++ {
		other.Observe(2)
	}
	h.Merge(&other)
	if h.Count() != 10 {
		t.Fatalf("merged count = %d, want 10", h.Count())
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("merged p50 = %d, want 2", got)
	}
	bounds, cum, total := h.Buckets()
	if len(bounds) != NumBuckets || len(cum) != NumBuckets {
		t.Fatal("bucket view shape mismatch")
	}
	if total != 10 {
		t.Fatalf("bucket total = %d, want 10", total)
	}
	if cum[NumBuckets-1] != 9 {
		t.Fatalf("finite cumulative = %d, want 9 (one overflow sample)", cum[NumBuckets-1])
	}
	h.Merge(nil) // no-op
	h.Merge(&h)  // self-merge no-op
	if h.Count() != 10 {
		t.Fatal("nil/self merge must not change counts")
	}
}

func TestMetricsSink(t *testing.T) {
	m := NewMetrics()
	m.Emit(At(TickStart, 1))
	m.Emit(At(TickStart, 2))
	ev := At(GearResolved, 1)
	ev.Node, ev.Slot, ev.Gear = 0, 0, "exp"
	m.Emit(ev)
	ev.Slot, ev.Gear = 1, "algA"
	m.Emit(ev)
	ev.Slot = 2
	m.Emit(ev)
	// Another node's resolution must not double-count shifts.
	ev.Node, ev.Slot, ev.Gear = 3, 3, "exp"
	m.Emit(ev)

	fb := At(FrameBatch, 1)
	fb.From, fb.To, fb.Frames, fb.Bytes = 0, 1, 3, 90
	m.Emit(fb)
	m.Emit(fb)
	c := At(SlotCommitted, 2)
	c.Node, c.Slot = 0, 0
	m.Emit(c)
	d := At(ChaosDrop, 2)
	d.From, d.To, d.Slot = 1, 2, 0
	m.Emit(d)

	if got := m.Ticks(); got != 2 {
		t.Fatalf("ticks = %d, want 2", got)
	}
	if got := m.Commits(); got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
	if got := m.GearShifts(); got != 1 {
		t.Fatalf("shifts = %d, want 1 (exp->algA once at node 0)", got)
	}
	gears := m.Gears()
	if gears["exp"] != 1 || gears["algA"] != 2 {
		t.Fatalf("gear counts = %v", gears)
	}
	links := m.Links()
	if len(links) != 1 || links[0].Frames != 6 || links[0].Bytes != 180 {
		t.Fatalf("links = %+v", links)
	}
	chaos := m.ChaosCounts()
	if chaos["drop"] != 1 || len(chaos) != 1 {
		t.Fatalf("chaos counts = %v", chaos)
	}
	if got := m.CountOf(TickStart); got != 2 {
		t.Fatalf("CountOf(TickStart) = %d, want 2", got)
	}
}
