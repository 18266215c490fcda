package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// PacketLog writes an ns-2-style wireless packet trace of the CPS run:
// one line per agent-level event, in the classic format
//
//	s 10.000000000 _1_ AGT --- 42 cbr 532 [1:0 0:0 32]
//	r 10.004310000 _0_ AGT --- 42 cbr 532 [1:0 0:0 29]
//	D 11.200000000 _5_ RTR no-route 43 cbr 532 [2:0 0:0 30]
//
// (event, time, node, layer, reason, uid, type, bytes, [src:port dst:port
// ttl]). The format is close enough to ns-2's old wireless trace that the
// usual awk one-liners for PDR/delay keep working.
type PacketLog struct {
	w   *bufio.Writer
	err error
}

// NewPacketLog wraps w; call Flush when the run completes.
func NewPacketLog(w io.Writer) *PacketLog {
	return &PacketLog{w: bufio.NewWriter(w)}
}

// Hooks returns netsim observers that record agent-level send/receive/drop
// events to the log. Install with World.AddHooks.
func (l *PacketLog) Hooks() netsim.Hooks {
	return netsim.Hooks{
		DataSent: func(n *netsim.Node, p *netsim.Packet) {
			l.event('s', n.Kernel().Now(), int(n.ID()), "AGT", "---", p)
		},
		DataDelivered: func(n *netsim.Node, p *netsim.Packet) {
			l.event('r', n.Kernel().Now(), int(n.ID()), "AGT", "---", p)
		},
		DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
			l.event('D', n.Kernel().Now(), int(n.ID()), "RTR", sanitize(reason), p)
		},
	}
}

func sanitize(reason string) string {
	return strings.ReplaceAll(reason, " ", "_")
}

func (l *PacketLog) event(kind byte, at sim.Time, node int, layer, reason string, p *netsim.Packet) {
	if l.err != nil {
		return
	}
	_, l.err = fmt.Fprintf(l.w, "%c %.9f _%d_ %s %s %d cbr %d [%d:%d %d:%d %d]\n",
		kind, at.Seconds(), node, layer, reason,
		p.UID, p.Size, p.Src, p.Port, p.Dst, p.Port, p.TTL)
}

// Flush drains buffered lines and reports the first write error, if any.
func (l *PacketLog) Flush() error {
	if l.err != nil {
		return l.err
	}
	return l.w.Flush()
}

// PacketLogSummary aggregates a packet trace back into the paper's
// metrics: packets sent, received and dropped per source node.
type PacketLogSummary struct {
	Sent     map[int]int
	Received map[int]int
	Dropped  map[int]int
	// DelaySum accumulates end-to-end delay per source, computable because
	// uids are unique; MeanDelay derives from it.
	delayBySrc map[int]float64
	sentAt     map[uint64]float64
	srcOf      map[uint64]int
}

// SummarizePacketLog parses a packet trace produced by PacketLog.
func SummarizePacketLog(r io.Reader) (*PacketLogSummary, error) {
	s := &PacketLogSummary{
		Sent:       make(map[int]int),
		Received:   make(map[int]int),
		Dropped:    make(map[int]int),
		delayBySrc: make(map[int]float64),
		sentAt:     make(map[uint64]float64),
		srcOf:      make(map[uint64]int),
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 8 {
			return nil, fmt.Errorf("trace: line %d: short event %q", lineNo, line)
		}
		at, err1 := strconv.ParseFloat(fields[1], 64)
		uid, err2 := strconv.ParseUint(fields[5], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("trace: line %d: bad numbers in %q", lineNo, line)
		}
		src, err := parseEndpoint(fields[8])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch fields[0] {
		case "s":
			s.Sent[src]++
			s.sentAt[uid] = at
			s.srcOf[uid] = src
		case "r":
			s.Received[src]++
			if t0, ok := s.sentAt[uid]; ok {
				s.delayBySrc[src] += at - t0
			}
		case "D":
			s.Dropped[src]++
		default:
			return nil, fmt.Errorf("trace: line %d: unknown event %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseEndpoint(field string) (int, error) {
	field = strings.TrimPrefix(field, "[")
	host, _, ok := strings.Cut(field, ":")
	if !ok {
		return 0, fmt.Errorf("malformed endpoint %q", field)
	}
	return strconv.Atoi(host)
}

// PDR reports delivered/sent for one source.
func (s *PacketLogSummary) PDR(src int) float64 {
	if s.Sent[src] == 0 {
		return 0
	}
	return float64(s.Received[src]) / float64(s.Sent[src])
}

// MeanDelay reports the average end-to-end delay in seconds for packets
// from src.
func (s *PacketLogSummary) MeanDelay(src int) float64 {
	if s.Received[src] == 0 {
		return 0
	}
	return s.delayBySrc[src] / float64(s.Received[src])
}
