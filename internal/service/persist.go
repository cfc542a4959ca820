package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// The durable half of the content-addressed cache: an append-only
// record log ("sussdcache/1\n", then per record a u32 length, the
// payload's SHA-256 and the payload, u16 key length | key | value),
// replayed at startup up to the first torn or corrupt record. DESIGN.md
// ("Service robustness") gives the recovery rules.

const (
	cacheMagic = "sussdcache/1\n"
	// maxRecordLen bounds one record's payload: a fleet shard cell is
	// the largest record (per-flow JSON), well under this.
	maxRecordLen = 1 << 26
	frameLen     = 4 + sha256.Size
)

// RecoveryInfo reports what replaying a cache file found at startup.
type RecoveryInfo struct {
	// Entries is the number of records replayed into the cache.
	Entries int `json:"entries"`
	// Truncated is set when a torn or corrupt tail was cut off.
	Truncated bool `json:"truncated,omitempty"`
	// DroppedBytes counts the truncated tail.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// Reason says why truncation happened ("" when the file was clean).
	Reason string `json:"reason,omitempty"`
}

func (ri RecoveryInfo) String() string {
	if !ri.Truncated {
		return fmt.Sprintf("%d record(s) replayed, file clean", ri.Entries)
	}
	return fmt.Sprintf("%d record(s) replayed, %d tail byte(s) dropped (%s)",
		ri.Entries, ri.DroppedBytes, ri.Reason)
}

// logFile is what cacheLog needs of the open file; tests substitute
// one whose Write fails part-way.
type logFile interface {
	io.WriteCloser
	Truncate(size int64) error
}

// cacheLog is an open cache file positioned for appends. Callers
// serialize access (the Cache's mutex).
type cacheLog struct {
	f      logFile
	good   int64  // end of the last intact record; the file is a replayable prefix up to here
	broken error  // set when torn bytes could not be cut off: no further appends
	buf    []byte // reusable record scratch
}

// openCacheLog opens (or creates) the log at path, replays every
// intact record into entries, and truncates the file at the first bad
// record so subsequent appends extend a known-good prefix.
func openCacheLog(path string, entries map[string]record) (*cacheLog, RecoveryInfo, error) {
	// O_APPEND: every Write lands at the end of the file, so truncating
	// to the known-good offset is all it takes to reposition.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info, good, err := replay(f, entries)
	if err != nil {
		f.Close()
		return nil, info, err
	}
	if info.Truncated {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, info, fmt.Errorf("truncating corrupt tail of %s: %w", path, err)
		}
	}
	if good == 0 {
		if _, err := f.WriteString(cacheMagic); err != nil {
			f.Close()
			return nil, info, err
		}
		good = int64(len(cacheMagic))
	}
	return &cacheLog{f: f, good: good}, info, nil
}

// replay scans the file and fills entries, returning the offset of the
// last intact record's end. It never errors on corruption — that is
// reported in RecoveryInfo and handled by truncation — only on I/O.
func replay(f *os.File, entries map[string]record) (RecoveryInfo, int64, error) {
	var info RecoveryInfo
	st, err := f.Stat()
	if err != nil {
		return info, 0, err
	}
	size := st.Size()
	if size == 0 {
		return info, 0, nil
	}
	r := bufio.NewReaderSize(f, 1<<20)
	hdr := make([]byte, len(cacheMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		// Shorter than the header: a daemon died during file creation.
		info.Truncated, info.DroppedBytes, info.Reason = true, size, "torn header"
		return info, 0, nil
	}
	if string(hdr) != cacheMagic {
		// A full-length header that is not ours is somebody else's file;
		// refusing beats silently destroying it.
		return info, 0, fmt.Errorf("cache file has bad magic %q (not a sussd cache)", hdr)
	}
	good := int64(len(cacheMagic))
	frame := make([]byte, frameLen)
	for {
		if _, err := io.ReadFull(r, frame); err != nil {
			if err != io.EOF {
				info.Truncated, info.Reason = true, "torn record frame"
			}
			break
		}
		n := binary.BigEndian.Uint32(frame[:4])
		if n < 2 || n > maxRecordLen {
			info.Truncated, info.Reason = true, fmt.Sprintf("implausible record length %d", n)
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			info.Truncated, info.Reason = true, "torn record payload"
			break
		}
		sum := sha256.Sum256(payload)
		if !bytes.Equal(sum[:], frame[4:]) {
			info.Truncated, info.Reason = true, "record checksum mismatch"
			break
		}
		klen := int(binary.BigEndian.Uint16(payload[:2]))
		if 2+klen > len(payload) {
			info.Truncated, info.Reason = true, "record key overruns payload"
			break
		}
		entries[string(payload[2:2+klen])] = record{raw: payload[2+klen:]}
		good += int64(frameLen) + int64(n)
		info.Entries++
	}
	if info.Truncated {
		info.DroppedBytes = size - good
	}
	return info, good, nil
}

// append writes one record in a single Write call, so a crash leaves
// either a complete record or a torn tail the next replay truncates.
// A Write that fails (ENOSPC, EIO) may leave torn bytes too, and replay
// stops at the first bad record: anything appended after them would be
// discarded at the next restart. So a failed append cuts the file back
// to the last intact record, and if that fails as well the log takes
// no more appends.
func (l *cacheLog) append(key string, val []byte) error {
	if l.broken != nil {
		return l.broken
	}
	n := 2 + len(key) + len(val)
	if n > maxRecordLen {
		return fmt.Errorf("cache record for %s is %d bytes, over the %d limit", key, n, maxRecordLen)
	}
	need := frameLen + n
	if cap(l.buf) < need {
		l.buf = make([]byte, 0, need*2)
	}
	b := l.buf[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	b = append(b, make([]byte, sha256.Size)...) // checksum placeholder
	b = binary.BigEndian.AppendUint16(b, uint16(len(key)))
	b = append(b, key...)
	b = append(b, val...)
	sum := sha256.Sum256(b[frameLen:])
	copy(b[4:frameLen], sum[:])
	l.buf = b
	if _, err := l.f.Write(b); err != nil {
		if terr := l.f.Truncate(l.good); terr != nil {
			l.broken = fmt.Errorf("cache log closed to appends: torn record left by %q could not be cut off: %w", err, terr)
		}
		return err
	}
	l.good += int64(len(b))
	return nil
}

func (l *cacheLog) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}
