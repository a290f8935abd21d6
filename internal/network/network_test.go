package network

import (
	"testing"

	"specdsm/internal/mem"
	"specdsm/internal/sim"
)

// tableFlight is Table 1's 80-cycle network flight latency.
const tableFlight sim.Cycle = 80

func testNet(t *testing.T, n int) (*sim.Kernel, *Network[any]) {
	t.Helper()
	k := sim.NewKernel()
	nw := New[any](k, n, tableFlight)
	return k, nw
}

func TestUncontendedLatency(t *testing.T) {
	k, nw := testNet(t, 2)
	var deliveredAt sim.Cycle = -1
	nw.SetHandler(1, func(src mem.NodeID, payload any) {
		deliveredAt = k.Now()
		if src != 0 {
			t.Errorf("src = %d, want 0", src)
		}
		if payload.(string) != "hello" {
			t.Errorf("payload = %v", payload)
		}
	})
	k.At(100, func() { nw.Send(0, 1, "hello") })
	k.Run(0)
	want := 100 + SendOccupancy + tableFlight + RecvOccupancy
	if deliveredAt != want {
		t.Fatalf("delivered at %d, want %d", deliveredAt, want)
	}
}

// TestMinLatencyMatchesConfig pins the one configurable timing value: an
// uncontended message is delivered SendOccupancy + flight + RecvOccupancy
// after it is sent, at Table 1's flight and at the RTL sweep's slowest.
func TestMinLatencyMatchesConfig(t *testing.T) {
	for flight, want := range map[sim.Cycle]sim.Cycle{tableFlight: 120, 320: 360} {
		k := sim.NewKernel()
		nw := New[any](k, 2, flight)
		var deliveredAt sim.Cycle = -1
		nw.SetHandler(1, func(src mem.NodeID, payload any) { deliveredAt = k.Now() })
		nw.Send(0, 1, "msg")
		k.Run(0)
		if deliveredAt != want {
			t.Errorf("flight %d: delivered at %d, want %d", flight, deliveredAt, want)
		}
	}
}

func TestSenderNIContentionSerializes(t *testing.T) {
	k, nw := testNet(t, 3)
	var times []sim.Cycle
	h := func(src mem.NodeID, payload any) { times = append(times, k.Now()) }
	nw.SetHandler(1, h)
	nw.SetHandler(2, h)
	// Two messages sent by node 0 at the same cycle to different targets:
	// the second must wait for the sender NI.
	k.At(0, func() {
		nw.Send(0, 1, 1)
		nw.Send(0, 2, 2)
	})
	k.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	if times[0] != 120 {
		t.Fatalf("first delivery at %d, want 120", times[0])
	}
	if times[1] != 140 {
		t.Fatalf("second delivery at %d, want 140 (20-cycle sender occupancy)", times[1])
	}
	st := nw.Stats()
	if st.SendQueueCycles != 20 {
		t.Fatalf("SendQueueCycles = %d, want 20", st.SendQueueCycles)
	}
}

func TestReceiverNIContentionSerializes(t *testing.T) {
	k, nw := testNet(t, 3)
	var times []sim.Cycle
	nw.SetHandler(2, func(src mem.NodeID, payload any) { times = append(times, k.Now()) })
	// Two different senders to one receiver, same cycle: flight is equal,
	// so both arrive together and the receiver NI serializes them.
	k.At(0, func() {
		nw.Send(0, 2, 1)
		nw.Send(1, 2, 2)
	})
	k.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	if times[0] != 120 || times[1] != 140 {
		t.Fatalf("deliveries at %v, want [120 140]", times)
	}
	st := nw.Stats()
	if st.RecvQueueCycles != 20 {
		t.Fatalf("RecvQueueCycles = %d, want 20", st.RecvQueueCycles)
	}
}

func TestFIFODeliveryPerPair(t *testing.T) {
	k, nw := testNet(t, 2)
	var got []int
	nw.SetHandler(1, func(src mem.NodeID, payload any) { got = append(got, payload.(int)) })
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			nw.Send(0, 1, i)
		}
	})
	k.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestSelfSendPaysNICosts(t *testing.T) {
	k, nw := testNet(t, 2)
	var at sim.Cycle = -1
	nw.SetHandler(0, func(src mem.NodeID, payload any) { at = k.Now() })
	k.At(0, func() { nw.Send(0, 0, nil) })
	k.Run(0)
	if at != 120 {
		t.Fatalf("self delivery at %d, want 120", at)
	}
}

func TestStatsCount(t *testing.T) {
	k, nw := testNet(t, 2)
	delivered := 0
	nw.SetHandler(1, func(mem.NodeID, any) { delivered++ })
	k.At(0, func() {
		nw.Send(0, 1, nil)
		nw.Send(0, 1, nil)
	})
	k.Run(0)
	st := nw.Stats()
	if st.Sent != 2 || delivered != 2 {
		t.Fatalf("stats = %+v, delivered %d", st, delivered)
	}
}

// TestDeliverLocalBypassesNIs pins the node-internal hop: the message is
// handed over exactly delay cycles later, occupies neither NI (a Send from
// the same node in the same cycle, and reaching the same receiver as a
// local delivery, keeps its uncontended latency), and is not counted as
// sent.
func TestDeliverLocalBypassesNIs(t *testing.T) {
	const delay sim.Cycle = 12
	k, nw := testNet(t, 2)
	at := map[string]sim.Cycle{}
	h := func(src mem.NodeID, payload any) {
		if src != 0 {
			t.Errorf("src = %d, want 0", src)
		}
		at[payload.(string)] = k.Now()
	}
	nw.SetHandler(0, h)
	nw.SetHandler(1, h)
	k.At(100, func() {
		nw.DeliverLocal(0, 0, delay, "local")
		nw.DeliverLocal(0, 1, delay, "local-to-1")
		nw.Send(0, 1, "sent")
	})
	// Lands at node 1 in the cycle the send reaches node 1's receiver NI.
	k.At(200-delay, func() { nw.DeliverLocal(0, 1, delay, "at-arrival") })
	k.Run(0)
	if at["local"] != 100+delay || at["local-to-1"] != 100+delay || at["at-arrival"] != 200 {
		t.Fatalf("local deliveries at %v, want %d and 200", at, 100+delay)
	}
	if want := 100 + SendOccupancy + tableFlight + RecvOccupancy; at["sent"] != want {
		t.Fatalf("send delivered at %d, want uncontended %d", at["sent"], want)
	}
	if st := nw.Stats(); st.Sent != 1 || st.SendQueueCycles != 0 || st.RecvQueueCycles != 0 {
		t.Fatalf("stats = %+v, want one send and no queueing", st)
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	k, nw := testNet(t, 2)
	k.At(0, func() { nw.Send(0, 1, nil) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing handler")
		}
	}()
	k.Run(0)
}

func TestInvalidNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[any](sim.NewKernel(), 0, tableFlight)
}

// Messages re-order across distinct sender NIs under load: a heavily queued
// sender's early message can arrive after a lightly loaded sender's later
// message. This is the mechanism behind ack re-ordering in the protocol.
func TestCrossSenderReordering(t *testing.T) {
	k, nw := testNet(t, 3)
	var got []string
	nw.SetHandler(2, func(src mem.NodeID, payload any) { got = append(got, payload.(string)) })
	k.At(0, func() {
		// Node 0 queues 3 messages; its last is "late".
		nw.Send(0, 2, "a0")
		nw.Send(0, 2, "a1")
		nw.Send(0, 2, "late")
	})
	// Node 1 sends at cycle 10; beats node 0's third message.
	k.At(10, func() { nw.Send(1, 2, "fast") })
	k.Run(0)
	if len(got) != 4 {
		t.Fatalf("delivered %d", len(got))
	}
	// "fast" leaves node 1 NI at 30, arrives 110. "late" leaves node 0 NI at
	// 60, arrives 140. So "fast" must precede "late".
	idx := map[string]int{}
	for i, s := range got {
		idx[s] = i
	}
	if idx["fast"] > idx["late"] {
		t.Fatalf("expected cross-sender reordering, got %v", got)
	}
}
