package record

import (
	"errors"
	"sync"
)

// DecodeAppend parses every record concatenated in payload, appends each
// onto dst and returns the extended slice — the manager's batch-decode hot
// path. Element storage is reused: when dst has spare capacity, the
// element occupying the next slot keeps its Fields array and DecodeInto
// fills it in place, so a batch slice recycled through GetBatch/PutBatch
// decodes with zero steady-state allocations.
//
// Decoded records borrow that recycled storage: they are valid until the
// batch is returned with PutBatch. Consumers keeping a record longer must
// Detach it. On a malformed payload the successfully decoded prefix is
// returned together with the error.
func DecodeAppend(dst []Record, payload []byte) ([]Record, error) {
	for len(payload) > 0 {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Record{})
		}
		n, err := DecodeInto(&dst[len(dst)-1], payload)
		if err != nil {
			return dst[:len(dst)-1], err
		}
		payload = payload[n:]
	}
	return dst, nil
}

// ErrShortPrefix reports a node-prefixed payload that ends inside a
// 4-byte origin prefix.
var ErrShortPrefix = errors.New("record: truncated node prefix")

// DecodeNodeAppend parses a payload of node-prefixed entries — each
// record preceded by its 4-byte big-endian origin node id, the framing
// shared by the shm memory buffer and the wire RelayBatch — appending
// each onto dst with Node set from its prefix. Storage reuse and
// error-prefix semantics match DecodeAppend.
func DecodeNodeAppend(dst []Record, payload []byte) ([]Record, error) {
	for len(payload) > 0 {
		if len(payload) < 4 {
			return dst, ErrShortPrefix
		}
		node := int32(uint32(payload[0])<<24 | uint32(payload[1])<<16 |
			uint32(payload[2])<<8 | uint32(payload[3]))
		payload = payload[4:]
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Record{})
		}
		n, err := DecodeInto(&dst[len(dst)-1], payload)
		if err != nil {
			return dst[:len(dst)-1], err
		}
		dst[len(dst)-1].Node = node
		payload = payload[n:]
	}
	return dst, nil
}

// batchPool recycles record-batch slices between the manager's parallel
// connection readers and its single merge goroutine.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]Record, 0, 256)
		return &b
	},
}

// GetBatch returns an empty record batch from the pool. The pointer (not
// the slice) travels between goroutines so the capacity grown by
// DecodeAppend survives recycling.
func GetBatch() *[]Record {
	return batchPool.Get().(*[]Record)
}

// PutBatch recycles a batch obtained from GetBatch. Only the length is
// reset: the elements keep their Fields arrays so the next DecodeAppend
// into the batch reuses them. The caller must no longer touch any record
// borrowed from the batch.
func PutBatch(b *[]Record) {
	*b = (*b)[:0]
	batchPool.Put(b)
}
