package ppp

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/onelab/umtslab/internal/serial"
	"github.com/onelab/umtslab/internal/sim"
)

// testPair wires a client and server across a serial line and returns
// them unstarted.
func testPair(t *testing.T, auth uint16, creds Credentials, secrets map[string]string) (*sim.Loop, *Client, *Server) {
	t.Helper()
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "tty", 460800)
	client := NewClient(ClientConfig{
		Name: "client", Loop: loop, Channel: line.HostEnd(), Creds: creds,
	})
	server := NewServer(ServerConfig{
		Name: "nas", Loop: loop, Channel: line.ModemEnd(),
		Auth: auth, Secrets: secrets,
		LocalAddr: netip.MustParseAddr("10.133.0.1"),
		Assign:    func(user string) netip.Addr { return netip.MustParseAddr("10.133.7.42") },
	})
	return loop, client, server
}

func runHandshake(t *testing.T, loop *sim.Loop, c *Client, s *Server) {
	t.Helper()
	s.Start()
	c.Start()
	loop.RunUntil(30 * time.Second)
}

func TestHandshakeNoAuth(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	runHandshake(t, loop, c, s)
	if !c.Up() || !s.Up() {
		t.Fatalf("phases: client=%v server=%v", c.Phase(), s.Phase())
	}
	if c.LocalAddr() != netip.MustParseAddr("10.133.7.42") {
		t.Fatalf("client addr = %v", c.LocalAddr())
	}
	if c.PeerAddr() != netip.MustParseAddr("10.133.0.1") {
		t.Fatalf("client peer = %v", c.PeerAddr())
	}
	if s.PeerAddr() != netip.MustParseAddr("10.133.7.42") {
		t.Fatalf("server peer = %v", s.PeerAddr())
	}
}

func TestHandshakeCHAP(t *testing.T) {
	loop, c, s := testPair(t, ProtoCHAP,
		Credentials{User: "onelab", Password: "umts"},
		map[string]string{"onelab": "umts"})
	var upUser string
	s.cfg.OnUp = func(user string, addr netip.Addr) { upUser = user }
	runHandshake(t, loop, c, s)
	if !c.Up() || !s.Up() {
		t.Fatalf("phases: client=%v server=%v", c.Phase(), s.Phase())
	}
	if upUser != "onelab" || s.User() != "onelab" {
		t.Fatalf("authenticated user = %q", s.User())
	}
}

func TestHandshakePAP(t *testing.T) {
	loop, c, s := testPair(t, ProtoPAP,
		Credentials{User: "web", Password: "web"},
		map[string]string{"web": "web"})
	runHandshake(t, loop, c, s)
	if !c.Up() || !s.Up() {
		t.Fatalf("phases: client=%v server=%v", c.Phase(), s.Phase())
	}
	if s.User() != "web" {
		t.Fatalf("user = %q", s.User())
	}
}

func TestCHAPWrongPassword(t *testing.T) {
	loop, c, s := testPair(t, ProtoCHAP,
		Credentials{User: "onelab", Password: "WRONG"},
		map[string]string{"onelab": "umts"})
	var downReason string
	c.cfg.OnDown = func(reason string) { downReason = reason }
	runHandshake(t, loop, c, s)
	if c.Up() || s.Up() {
		t.Fatal("connection must not come up with bad credentials")
	}
	if downReason == "" {
		t.Fatal("client OnDown not invoked")
	}
}

func TestPAPUnknownUser(t *testing.T) {
	loop, c, s := testPair(t, ProtoPAP,
		Credentials{User: "ghost", Password: "x"},
		map[string]string{"web": "web"})
	runHandshake(t, loop, c, s)
	if c.Up() || s.Up() {
		t.Fatal("connection must not come up for unknown user")
	}
}

func TestDataTransferBothWays(t *testing.T) {
	loop, c, s := testPair(t, ProtoCHAP,
		Credentials{User: "onelab", Password: "umts"},
		map[string]string{"onelab": "umts"})
	var atServer, atClient [][]byte
	// Received datagrams are borrowed for the callback only: keep copies.
	s.cfg.OnIPv4 = func(b []byte) { atServer = append(atServer, bytes.Clone(b)) }
	c.cfg.OnIPv4 = func(b []byte) { atClient = append(atClient, bytes.Clone(b)) }
	runHandshake(t, loop, c, s)
	if !c.Up() {
		t.Fatal("not up")
	}
	up := []byte{0x45, 0x00, 0x00, 0x04, 1, 2, 3, 4}
	down := bytes.Repeat([]byte{0xCC}, 512)
	if err := c.SendIPv4(up); err != nil {
		t.Fatal(err)
	}
	if err := s.SendIPv4(down); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(atServer) != 1 || !bytes.Equal(atServer[0], up) {
		t.Fatalf("server got %v", atServer)
	}
	if len(atClient) != 1 || !bytes.Equal(atClient[0], down) {
		t.Fatalf("client got %d datagrams", len(atClient))
	}
}

func TestSendBeforeUp(t *testing.T) {
	_, c, s := testPair(t, 0, Credentials{}, nil)
	if err := c.SendIPv4([]byte{1}); err != ErrNotUp {
		t.Fatalf("client err = %v, want ErrNotUp", err)
	}
	if err := s.SendIPv4([]byte{1}); err != ErrNotUp {
		t.Fatalf("server err = %v, want ErrNotUp", err)
	}
}

func TestTerminate(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	var clientDown, serverDown string
	c.cfg.OnDown = func(r string) { clientDown = r }
	s.cfg.OnDown = func(r string) { serverDown = r }
	runHandshake(t, loop, c, s)
	if !c.Up() {
		t.Fatal("not up")
	}
	c.Terminate("user requested disconnect")
	loop.RunUntil(60 * time.Second)
	if c.Up() || s.Up() {
		t.Fatalf("still up after terminate: client=%v server=%v", c.Phase(), s.Phase())
	}
	if clientDown == "" || serverDown == "" {
		t.Fatalf("down callbacks: client=%q server=%q", clientDown, serverDown)
	}
}

func TestNegotiationTimeoutWithoutPeer(t *testing.T) {
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "tty", 460800)
	var downReason string
	c := NewClient(ClientConfig{
		Name: "lonely", Loop: loop, Channel: line.HostEnd(),
		OnDown: func(r string) { downReason = r },
	})
	c.Start()
	loop.RunUntil(60 * time.Second)
	if c.Up() {
		t.Fatal("cannot be up with no peer")
	}
	if downReason == "" {
		t.Fatal("expected negotiation timeout")
	}
}

func TestEchoRequestReply(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	runHandshake(t, loop, c, s)
	// Send an LCP Echo-Request from the server; the client automaton
	// must reply and the connection must stay up.
	s.link.sendControl(ProtoLCP, ControlPacket{Code: CodeEchoReq, ID: 42, Data: []byte{0, 0, 0, 0}})
	loop.RunUntil(loop.Now() + time.Second)
	if !c.Up() || !s.Up() {
		t.Fatal("echo disturbed the session")
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	runHandshake(t, loop, c, s)
	before := c.link.TxFrames
	// Inject an unknown protocol frame from the server side.
	s.link.sendPPP(0x8057, []byte{1, 2, 3}) // IPv6CP, unsupported
	loop.RunUntil(loop.Now() + time.Second)
	if c.link.TxFrames == before {
		t.Fatal("client should have emitted a Protocol-Reject")
	}
	if !c.Up() {
		t.Fatal("protocol reject must not tear the session down")
	}
}

func TestHandshakeFrameCounts(t *testing.T) {
	loop, c, s := testPair(t, ProtoCHAP,
		Credentials{User: "onelab", Password: "umts"},
		map[string]string{"onelab": "umts"})
	runHandshake(t, loop, c, s)
	tx, rx, fcsErr := c.Stats()
	if tx == 0 || rx == 0 {
		t.Fatalf("no frames counted: tx=%d rx=%d", tx, rx)
	}
	if fcsErr != 0 {
		t.Fatalf("FCS errors on a clean line: %d", fcsErr)
	}
}

func TestPhaseString(t *testing.T) {
	phases := map[Phase]string{
		PhaseDead: "dead", PhaseEstablish: "establish", PhaseAuthenticate: "authenticate",
		PhaseNetwork: "network", PhaseRunning: "running", PhaseTerminate: "terminate",
	}
	for p, want := range phases {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}

func TestStateString(t *testing.T) {
	if cpOpened.String() != "Opened" || cpReqSent.String() != "Req-Sent" {
		t.Fatal("state strings wrong")
	}
}

func TestSlowLineHandshake(t *testing.T) {
	// Even over a slow 9600-baud line the handshake must converge (it
	// just takes longer); retransmissions may occur.
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "tty", 9600)
	c := NewClient(ClientConfig{Name: "c", Loop: loop, Channel: line.HostEnd(),
		Creds: Credentials{User: "u", Password: "p"}})
	s := NewServer(ServerConfig{Name: "s", Loop: loop, Channel: line.ModemEnd(),
		Auth: ProtoPAP, Secrets: map[string]string{"u": "p"},
		LocalAddr: netip.MustParseAddr("10.133.0.1"),
		Assign:    func(string) netip.Addr { return netip.MustParseAddr("10.133.7.9") }})
	s.Start()
	c.Start()
	loop.RunUntil(60 * time.Second)
	if !c.Up() || !s.Up() {
		t.Fatalf("slow-line handshake failed: client=%v server=%v", c.Phase(), s.Phase())
	}
}

func TestEchoKeepaliveDetectsCarrierLoss(t *testing.T) {
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "tty", 460800)
	var downReason string
	var downAt time.Duration
	c := NewClient(ClientConfig{
		Name: "c", Loop: loop, Channel: line.HostEnd(),
		EchoInterval: 10 * time.Second, EchoFailure: 3,
		OnDown: func(r string) { downReason = r; downAt = loop.Now() },
	})
	s := NewServer(ServerConfig{
		Name: "s", Loop: loop, Channel: line.ModemEnd(),
		LocalAddr: netip.MustParseAddr("10.133.0.1"),
		Assign:    func(string) netip.Addr { return netip.MustParseAddr("10.133.7.9") },
	})
	s.Start()
	c.Start()
	loop.RunUntil(30 * time.Second)
	if !c.Up() {
		t.Fatal("not up")
	}
	// Keepalives answered: stays up well past several intervals.
	loop.RunUntil(100 * time.Second)
	if !c.Up() {
		t.Fatalf("connection dropped despite answered keepalives: %q", downReason)
	}
	// Carrier loss: the modem stops relaying (peer unreachable).
	line.ModemEnd().SetReceiver(nil)
	cut := loop.Now()
	loop.RunUntil(cut + 5*time.Minute)
	if c.Up() {
		t.Fatal("echo keepalive did not detect carrier loss")
	}
	if downReason != "LCP echo timeout" {
		t.Fatalf("down reason = %q", downReason)
	}
	if elapsed := downAt - cut; elapsed > time.Minute {
		t.Fatalf("detection took %v, want within failures*interval+slack", elapsed)
	}
}

func TestNoisyLineFramesDropped(t *testing.T) {
	// A marginal line corrupts bytes; FCS must catch every corrupted
	// frame and the session must survive (data is lossy, control
	// packets are retransmitted by the automaton).
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "noisy", 4_000_000)
	c := NewClient(ClientConfig{Name: "c", Loop: loop, Channel: line.HostEnd()})
	s := NewServer(ServerConfig{
		Name: "s", Loop: loop, Channel: line.ModemEnd(),
		LocalAddr: netip.MustParseAddr("10.133.0.1"),
		Assign:    func(string) netip.Addr { return netip.MustParseAddr("10.133.7.9") },
	})
	s.Start()
	c.Start()
	loop.RunUntil(30 * time.Second)
	if !c.Up() {
		t.Fatal("clean handshake failed")
	}
	// Now inject noise and push data frames through.
	line.SetByteErrorRate(0.0005) // ~1 bad byte per 2 kilobytes
	received := 0
	s.cfg.OnIPv4 = func(b []byte) { received++ }
	const sent = 2000
	for i := 0; i < sent; i++ {
		i := i
		loop.After(time.Duration(i)*5*time.Millisecond, func() {
			pkt := make([]byte, 512)
			pkt[0] = 0x45
			c.SendIPv4(pkt)
		})
	}
	loop.RunUntil(loop.Now() + time.Duration(sent)*5*time.Millisecond + 5*time.Second)
	sFCS := s.link.deframe.FCSErrors
	sRunts := s.link.deframe.Runts
	if sFCS == 0 {
		t.Fatal("no FCS errors despite injected noise")
	}
	// With ~0.25 corrupted bytes per 512-byte frame, ~75-80% of frames
	// survive; a corrupted flag can merge or split frames, so the books
	// only balance approximately (merged frames count one FCS error for
	// two losses).
	if received < sent/2 {
		t.Fatalf("only %d of %d frames survived mild noise", received, sent)
	}
	if received+int(sFCS)+int(sRunts) < sent*3/4 {
		t.Fatalf("accounting: received %d + fcs %d + runts %d of %d", received, sFCS, sRunts, sent)
	}
	// The CRC guarantees corrupted frames are dropped, never delivered;
	// and the session must survive the noise.
	if !c.Up() || !s.Up() {
		t.Fatal("noise tore the session down")
	}
}

func TestRenegotiationInOpened(t *testing.T) {
	// A ConfReq received in Opened state restarts negotiation (RFC 1661)
	// and the session converges again.
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	runHandshake(t, loop, c, s)
	if !c.Up() {
		t.Fatal("not up")
	}
	// Server-side LCP renegotiates.
	s.lcp.sendConfReq()
	loop.RunUntil(loop.Now() + 10*time.Second)
	if !s.lcp.Opened() || !c.lcp.Opened() {
		t.Fatalf("renegotiation did not converge: server=%s client=%s", s.lcp.State(), c.lcp.State())
	}
}

func TestMRUNakAdjustsRequest(t *testing.T) {
	// A client requesting a tiny MRU gets Naked toward 1500 and adopts
	// the suggestion.
	loop := sim.NewLoop(1)
	line := serial.NewLine(loop, "tty", 460800)
	c := NewClient(ClientConfig{Name: "c", Loop: loop, Channel: line.HostEnd(), MRU: 100})
	s := NewServer(ServerConfig{
		Name: "s", Loop: loop, Channel: line.ModemEnd(),
		LocalAddr: netip.MustParseAddr("10.133.0.1"),
		Assign:    func(string) netip.Addr { return netip.MustParseAddr("10.133.7.9") },
	})
	s.Start()
	c.Start()
	loop.RunUntil(30 * time.Second)
	if !c.Up() {
		t.Fatalf("handshake with naked MRU failed: %v", c.Phase())
	}
	if c.lcpP.mru != 1500 {
		t.Fatalf("client MRU = %d, want adopted 1500", c.lcpP.mru)
	}
}

func TestACCMNegotiated(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	runHandshake(t, loop, c, s)
	if !c.link.accm0 || !s.link.accm0 {
		t.Fatal("both sides should have negotiated ACCM 0")
	}
	// Data frames are smaller under ACCM 0 than under default escaping.
	payload := EncapsulatePPP(ProtoIPv4, make([]byte, 1000)) // all zeros
	plain := len(AppendFrame(nil, payload))
	slim := len(AppendFrameACCM0(nil, payload))
	if slim >= plain {
		t.Fatalf("ACCM 0 framing not smaller: %d vs %d", slim, plain)
	}
	if plain < 2*len(payload)-100 {
		t.Fatalf("default escaping of zeros should nearly double: %d for %d payload", plain, len(payload))
	}
}

func TestTerminateWithReason(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	var serverReason string
	s.cfg.OnDown = func(r string) { serverReason = r }
	runHandshake(t, loop, c, s)
	c.Terminate("experiment finished")
	loop.RunUntil(loop.Now() + 20*time.Second)
	if serverReason == "" || !strings.Contains(serverReason, "experiment finished") {
		t.Fatalf("terminate reason not conveyed: %q", serverReason)
	}
}

func TestClientCarrierLostImmediate(t *testing.T) {
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	var reason string
	c.cfg.OnDown = func(r string) { reason = r }
	runHandshake(t, loop, c, s)
	c.CarrierLost()
	if c.Up() {
		t.Fatal("CarrierLost must down the client synchronously")
	}
	if reason != "carrier lost" {
		t.Fatalf("reason = %q", reason)
	}
	// Idempotent.
	c.CarrierLost()
	loop.Run()
}

func TestCCPRejectedSessionSurvives(t *testing.T) {
	// Real pppd (with ppp_deflate loaded, as the paper's node does)
	// offers CCP; a peer without compression Protocol-Rejects it and the
	// session continues uncompressed. Our stack is the rejecting side.
	loop, c, s := testPair(t, 0, Credentials{}, nil)
	runHandshake(t, loop, c, s)
	before := c.link.TxFrames
	s.link.sendPPP(0x80fd, ControlPacket{Code: CodeConfReq, ID: 1}.Marshal()) // CCP
	loop.RunUntil(loop.Now() + 2*time.Second)
	if c.link.TxFrames == before {
		t.Fatal("client should Protocol-Reject the CCP ConfReq")
	}
	if !c.Up() || !s.Up() {
		t.Fatal("CCP rejection must not tear the session down")
	}
	// Data still flows.
	gotData := false
	s.cfg.OnIPv4 = func([]byte) { gotData = true }
	c.SendIPv4([]byte{0x45, 0, 0, 0})
	loop.RunUntil(loop.Now() + time.Second)
	if !gotData {
		t.Fatal("data path broken after CCP rejection")
	}
}
