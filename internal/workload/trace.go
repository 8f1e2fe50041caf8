package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace support implements Section IV-D's extensibility path concretely:
// any key stream — from a built-in generator, a production capture, or an
// external tool like mutilate — can be recorded to a compact binary file
// and replayed bit-identically through the performance engine. A trace is
// the most direct way to "plug in a new workload pattern that mimics the
// application".
//
// Format: magic "SHTB" + version byte + uvarint key count + uvarint-delta
// encoded keys (raw uvarints; keys are not assumed sorted, so deltas are
// zig-zag encoded against the previous key).

const (
	traceMagic   = "SHTB"
	traceVersion = 1
)

// WriteTrace records the key stream to w.
func WriteTrace(w io.Writer, keys []uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(keys)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	prev := uint64(0)
	for _, k := range keys {
		delta := int64(k - prev)
		n := binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = k
	}
	return bw.Flush()
}

// ReadTrace loads a recorded key stream from r.
func ReadTrace(r io.Reader) ([]uint64, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (magic %q)", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d", ver)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace length: %w", err)
	}
	const maxTraceKeys = 1 << 30
	if count > maxTraceKeys {
		return nil, fmt.Errorf("workload: trace declares %d keys (cap %d)", count, maxTraceKeys)
	}
	keys := make([]uint64, count)
	prev := uint64(0)
	for i := range keys {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("workload: trace truncated at key %d: %w", i, err)
		}
		prev += uint64(delta)
		keys[i] = prev
	}
	return keys, nil
}

// TraceGenerator replays a recorded key stream, cycling when exhausted. It
// implements Generator, so a replayed trace drops into every experiment
// that accepts a workload pattern.
type TraceGenerator struct {
	keys []uint64
	pos  int
}

// NewTraceGenerator wraps a key stream as a Generator.
func NewTraceGenerator(keys []uint64) (*TraceGenerator, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return &TraceGenerator{keys: keys}, nil
}

// Next implements Generator, cycling through the trace.
func (t *TraceGenerator) Next() uint64 {
	k := t.keys[t.pos]
	t.pos++
	if t.pos == len(t.keys) {
		t.pos = 0
	}
	return k
}
