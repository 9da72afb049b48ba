package ctrl

import (
	"testing"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// BenchmarkDecodeRequest measures parsing one establish request
// payload. The paper metric is the payload's size in bytes.
func BenchmarkDecodeRequest(b *testing.B) {
	payload := requestBytes(Request{ID: 7, Op: OpEstablish, A: 3, B: 9, Width: 2, Deadline: unit.Millisecond})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "payload_bytes")
}

// BenchmarkEncodeResponse measures encoding one shed response into a
// reused encoder, as the serve loop does. The paper metric is the
// payload's size in bytes.
func BenchmarkEncodeResponse(b *testing.B) {
	resp := Response{ID: 7, Status: StatusOverloaded, Detail: "queue full (cap 512)"}
	var enc snapshot.Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		EncodeResponseTo(&enc, resp)
	}
	b.ReportMetric(float64(len(enc.Bytes())), "payload_bytes")
}

// BenchmarkCallPipe measures one Client.Call answered by
// Handler.ServeConn over net.Pipe: both ends' framing, the handler and
// the server, without a kernel socket. "ok" alternates an establish and
// the release of the circuit it granted; "shed" sends establishes to a
// full queue, each answered Overloaded. The paper metric is the Read
// calls per frame over both ends, which the buffered frame reader
// holds at exactly one.
func BenchmarkCallPipe(b *testing.B) {
	for _, shed := range []bool{false, true} {
		name, cfg, tick := "ok", Config{Seed: 30}, 5*unit.Microsecond
		if shed {
			name, cfg, tick = "shed", Config{Seed: 30, QueueCap: 4}, 0
		}
		b.Run(name, func(b *testing.B) {
			server, client := servePipe(b, cfg, tick)
			c := NewClient(client)
			held := -1
			call := func() {
				req := Request{Op: OpEstablish, A: 4, B: 21, Width: 1}
				if held >= 0 {
					req = Request{Op: OpRelease, Circuit: held}
				}
				resp, err := c.Call(req)
				if err != nil {
					b.Fatal(err)
				}
				switch {
				case !shed && resp.Status == StatusOK && req.Op == OpEstablish:
					held = resp.Circuit
				case !shed && resp.Status == StatusOK:
					held = -1
				case !shed || resp.Status != StatusOverloaded:
					b.Fatalf("%s answered %s: %s", req.Op, resp.Status, resp.Detail)
				}
			}
			if shed {
				for i := 0; i < cfg.QueueCap; i++ {
					if _, err := c.Call(Request{Op: OpEstablish, A: 2 * i, B: 2*i + 1, Width: 1}); err != nil {
						b.Fatal(err)
					}
				}
			}
			call()
			call()
			reads := server.reads.Load() + client.reads.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.StopTimer()
			reads = server.reads.Load() + client.reads.Load() - reads
			b.ReportMetric(float64(reads)/float64(2*b.N), "reads_per_frame")
		})
	}
}
