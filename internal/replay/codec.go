package replay

// codec.go is the WRPLAY02 binary format: an 8-byte magic followed by
// self-framing records — tag byte, uvarint payload length, payload — in
// chronological order. The framing makes the stream kill-tolerant: Load
// accepts a truncated tail (the process died mid-run) and returns the
// intact prefix, which still carries every completed snapshot; only the
// end record, written by Finish, marks a recording replayable end to end.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"weakmodels/internal/enc"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
)

// replayMagic identifies the format and its version. WRPLAY02 recordings
// carry one Settled verdict per step up to the first true one, where
// WRPLAY01 carried one per periodic fixpoint probe; the two streams do
// not replay each other.
const replayMagic = "WRPLAY02"

// Record tags.
const (
	recBegin   byte = 1 // run shape: sync, hasPlan, corrupts
	recSched   byte = 2 // one schedule decision
	recPlanDec byte = 3 // one fault-plan decision + healed count
	recFates   byte = 4 // one step's delivery fates + rewrites
	recSettled byte = 5 // one Settled verdict
	recSnap    byte = 6 // one engine snapshot (engine binary form)
	recEnd     byte = 7 // final step + fixpoint flag; seals the recording
)

// recordWriter frames records onto a writer with a sticky error.
type recordWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (rw *recordWriter) emit(tag byte, payload []byte) {
	if rw.err != nil {
		return
	}
	rw.buf = append(rw.buf[:0], tag)
	rw.buf = enc.Uvarint(rw.buf, uint64(len(payload)))
	rw.buf = append(rw.buf, payload...)
	_, rw.err = rw.w.Write(rw.buf)
}

// Bit-packed bool slices: uvarint count, then ⌈count/8⌉ bytes, LSB first.
func packBools(b []byte, v []bool) []byte {
	b = enc.Uvarint(b, uint64(len(v)))
	var acc byte
	for i, x := range v {
		if x {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(v)%8 != 0 {
		b = append(b, acc)
	}
	return b
}

func unpackBools(rd *enc.Reader) ([]bool, error) {
	k := int(rd.Uvarint())
	if rd.Err() != nil || k == 0 {
		return nil, rd.Err()
	}
	if (k+7)/8 > rd.Len() {
		return nil, fmt.Errorf("replay: %d-bool mask with %d bytes left", k, rd.Len())
	}
	v := make([]bool, k)
	var acc byte
	for i := range v {
		if i%8 == 0 {
			acc = rd.Byte()
		}
		v[i] = acc&(1<<(i%8)) != 0
	}
	return v, rd.Err()
}

func encodeBegin(rec *Recording) []byte {
	var b []byte
	b = enc.Bool(b, rec.Sync)
	b = enc.Bool(b, rec.HasPlan)
	b = enc.Bool(b, rec.Corrupts)
	return b
}

func encodeSched(s *schedStep) []byte {
	var b []byte
	b = enc.Varint(b, int64(s.step))
	b = enc.Bool(b, s.activateAll)
	b = enc.Bool(b, s.deliverAll)
	if !s.activateAll {
		b = packBools(b, s.activate)
	}
	if !s.deliverAll {
		b = enc.Uvarint(b, uint64(len(s.deliver)))
		for _, d := range s.deliver {
			b = enc.Varint(b, int64(d))
		}
	}
	return b
}

func decodeSched(rd *enc.Reader) (schedStep, error) {
	var s schedStep
	s.step = int(rd.Varint())
	s.activateAll = rd.Bool()
	s.deliverAll = rd.Bool()
	if rd.Err() == nil && !s.activateAll {
		var err error
		if s.activate, err = unpackBools(rd); err != nil {
			return s, err
		}
	}
	if rd.Err() == nil && !s.deliverAll {
		k := int(rd.Uvarint())
		if rd.Err() == nil && k > rd.Len() {
			return s, fmt.Errorf("replay: schedule record claims %d links, %d bytes left", k, rd.Len())
		}
		if rd.Err() == nil && k > 0 {
			s.deliver = make([]int32, k)
			for i := range s.deliver {
				s.deliver[i] = int32(rd.Varint())
			}
		}
	}
	return s, rd.Err()
}

func encodePlan(s *planStep) []byte {
	var b []byte
	b = enc.Varint(b, int64(s.step))
	b = packBools(b, s.crash)
	b = enc.Uvarint(b, uint64(len(s.recover)))
	for _, k := range s.recover {
		b = append(b, byte(k))
	}
	b = packBools(b, s.resend)
	b = enc.Varint(b, s.healed)
	return b
}

func decodePlan(rd *enc.Reader) (planStep, error) {
	var s planStep
	var err error
	s.step = int(rd.Varint())
	if s.crash, err = unpackBools(rd); err != nil {
		return s, err
	}
	k := int(rd.Uvarint())
	if rd.Err() == nil && k > rd.Len() {
		return s, fmt.Errorf("replay: plan record claims %d recover kinds, %d bytes left", k, rd.Len())
	}
	if rd.Err() == nil && k > 0 {
		s.recover = make([]fault.RecoverKind, k)
		for i := range s.recover {
			s.recover[i] = fault.RecoverKind(rd.Byte())
		}
	}
	if s.resend, err = unpackBools(rd); err != nil {
		return s, err
	}
	s.healed = rd.Varint()
	return s, rd.Err()
}

func encodeFates(s *fateStep) []byte {
	var b []byte
	b = enc.Varint(b, int64(s.step))
	b = enc.Uvarint(b, uint64(len(s.fates)))
	for _, f := range s.fates {
		b = append(b, byte(f))
	}
	b = enc.Uvarint(b, uint64(len(s.rewrites)))
	for _, m := range s.rewrites {
		b = enc.String(b, m)
	}
	return b
}

func decodeFates(rd *enc.Reader) (fateStep, error) {
	var s fateStep
	s.step = int(rd.Varint())
	k := int(rd.Uvarint())
	if rd.Err() == nil && k > rd.Len() {
		return s, fmt.Errorf("replay: fate record claims %d fates, %d bytes left", k, rd.Len())
	}
	if rd.Err() == nil && k > 0 {
		s.fates = make([]fault.Fate, k)
		for i := range s.fates {
			s.fates[i] = fault.Fate(rd.Byte())
		}
	}
	k = int(rd.Uvarint())
	if rd.Err() == nil && k > rd.Len() {
		return s, fmt.Errorf("replay: fate record claims %d rewrites, %d bytes left", k, rd.Len())
	}
	if rd.Err() == nil && k > 0 {
		s.rewrites = make([]string, k)
		for i := range s.rewrites {
			s.rewrites[i] = rd.String()
		}
	}
	return s, rd.Err()
}

func encodeSettled(s settledStep) []byte {
	var b []byte
	b = enc.Varint(b, int64(s.step))
	b = enc.Bool(b, s.ok)
	return b
}

func encodeEnd(rec *Recording) []byte {
	var b []byte
	b = enc.Varint(b, int64(rec.FinalStep))
	b = enc.Bool(b, rec.Fixpoint)
	return b
}

// Load decodes a WRPLAY02 recording. The machine and numbering decode the
// embedded snapshots (the machine supplies the gob state template) and
// must be the ones the run was recorded with. A truncated tail — the
// recording process was killed mid-run — is not an error: Load returns
// the intact prefix, with FinalStep 0 when the end record is missing.
func Load(r io.Reader, m machine.Machine, p *port.Numbering) (*Recording, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(replayMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("replay: read header: %w", err)
	}
	if string(magic) != replayMagic {
		return nil, fmt.Errorf("replay: bad magic %q, want %q", magic, replayMagic)
	}
	rec := &Recording{}
	sawBegin := false
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("replay: read record tag: %w", err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			break // truncated frame header: keep the prefix
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			break // truncated payload: keep the prefix
		}
		rd := enc.NewReader(payload)
		switch tag {
		case recBegin:
			rec.Sync = rd.Bool()
			rec.HasPlan = rd.Bool()
			rec.Corrupts = rd.Bool()
			sawBegin = true
			err = rd.Err()
		case recSched:
			var s schedStep
			if s, err = decodeSched(rd); err == nil {
				rec.scheds = append(rec.scheds, s)
			}
		case recPlanDec:
			var s planStep
			if s, err = decodePlan(rd); err == nil {
				rec.plans = append(rec.plans, s)
			}
		case recFates:
			var s fateStep
			if s, err = decodeFates(rd); err == nil {
				rec.fates = append(rec.fates, s)
			}
		case recSettled:
			s := settledStep{step: int(rd.Varint()), ok: rd.Bool()}
			if err = rd.Err(); err == nil {
				rec.settled = append(rec.settled, s)
			}
		case recSnap:
			var snap *engine.Snapshot
			if snap, err = engine.UnmarshalSnapshot(payload, m, p); err == nil {
				rec.snaps = append(rec.snaps, snap)
			}
		case recEnd:
			rec.FinalStep = int(rd.Varint())
			rec.Fixpoint = rd.Bool()
			err = rd.Err()
		default:
			return nil, fmt.Errorf("replay: unknown record tag %d", tag)
		}
		if err != nil {
			return nil, fmt.Errorf("replay: decode record tag %d: %w", tag, err)
		}
	}
	if !sawBegin {
		return nil, fmt.Errorf("replay: recording has no begin record")
	}
	return rec, nil
}
