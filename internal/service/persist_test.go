package service

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tmpCachePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "cache.log")
}

func mustOpen(t *testing.T, path string) (*Cache, RecoveryInfo) {
	t.Helper()
	c, info, err := NewPersistentCache(path)
	if err != nil {
		t.Fatalf("NewPersistentCache(%s): %v", path, err)
	}
	return c, info
}

func fillCache(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf(`{"cell":%d}`, i)))
	}
}

// The basic durability contract: everything Put before a clean close
// is served after reopen, with no truncation reported.
func TestPersistRoundTrip(t *testing.T) {
	path := tmpCachePath(t)
	c, info := mustOpen(t, path)
	if info.Entries != 0 || info.Truncated {
		t.Fatalf("fresh file recovery = %+v, want empty and clean", info)
	}
	fillCache(t, c, 20)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, info2 := mustOpen(t, path)
	defer c2.Close()
	if info2.Entries != 20 || info2.Truncated {
		t.Fatalf("reopen recovery = %+v, want 20 clean entries", info2)
	}
	for i := 0; i < 20; i++ {
		v, ok := c2.Get(fmt.Sprintf("key-%04d", i))
		if !ok || string(v) != fmt.Sprintf(`{"cell":%d}`, i) {
			t.Fatalf("key-%04d after reopen: %q ok=%v", i, v, ok)
		}
	}
}

// A torn tail — the write a kill -9 interrupted — is truncated at the
// last intact record, and the file accepts appends again afterwards.
func TestPersistTornTailRecovered(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 5)
	c.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Append a frame that promises 500 payload bytes and delivers 7.
	torn := append([]byte(nil), whole...)
	torn = binary.BigEndian.AppendUint32(torn, 500)
	torn = append(torn, make([]byte, sha256.Size)...)
	torn = append(torn, []byte("garbage")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, info := mustOpen(t, path)
	if info.Entries != 5 || !info.Truncated || info.DroppedBytes != int64(len(torn)-len(whole)) {
		t.Fatalf("torn-tail recovery = %+v, want 5 entries and %d dropped bytes", info, len(torn)-len(whole))
	}
	if !strings.Contains(info.Reason, "torn") {
		t.Errorf("recovery reason %q does not mention the torn tail", info.Reason)
	}
	// The truncated file is a valid log again: append and re-replay.
	c2.Put("after-recovery", []byte("v"))
	c2.Close()
	c3, info3 := mustOpen(t, path)
	defer c3.Close()
	if info3.Entries != 6 || info3.Truncated {
		t.Fatalf("post-recovery reopen = %+v, want 6 clean entries", info3)
	}
	if _, ok := c3.Get("after-recovery"); !ok {
		t.Error("record appended after recovery was lost")
	}
}

// A flipped byte inside a record fails its checksum; replay keeps the
// records before it and truncates from the corruption on — including
// any records after it, per the first-bad-record rule.
func TestPersistCorruptRecordTruncatesTail(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 3)
	sizeAfter3, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 6) // keys 0..5: three more records appended
	c.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record 4 (the first record past offset
	// sizeAfter3, skipping its frame).
	raw[sizeAfter3.Size()+frameLen+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 3 || !info.Truncated {
		t.Fatalf("corrupt-record recovery = %+v, want 3 entries with truncation", info)
	}
	if !strings.Contains(info.Reason, "checksum") {
		t.Errorf("recovery reason %q does not mention the checksum", info.Reason)
	}
	if _, ok := c2.Get("key-0002"); !ok {
		t.Error("intact record before the corruption was dropped")
	}
	_, ok4 := c2.Get("key-0004")
	if _, ok5 := c2.Get("key-0005"); ok4 || ok5 {
		t.Error("records after the corruption survived; replay must stop at the first bad record")
	}
}

// A file shorter than the header (killed during creation) is reset; a
// full-length header that is not ours is refused, not destroyed.
func TestPersistHeaderEdgeCases(t *testing.T) {
	short := tmpCachePath(t)
	if err := os.WriteFile(short, []byte("suss"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, info := mustOpen(t, short)
	if !info.Truncated || info.DroppedBytes != 4 {
		t.Errorf("torn-header recovery = %+v, want 4 dropped bytes", info)
	}
	c.Put("k", []byte("v"))
	c.Close()
	c2, info2 := mustOpen(t, short)
	if info2.Entries != 1 || info2.Truncated {
		t.Errorf("reopen after torn-header reset = %+v, want 1 clean entry", info2)
	}
	c2.Close()

	alien := filepath.Join(t.TempDir(), "notours.log")
	if err := os.WriteFile(alien, []byte("definitely not a sussd cache file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewPersistentCache(alien); err == nil {
		t.Fatal("opening a non-cache file succeeded; want a bad-magic refusal")
	}
	raw, err := os.ReadFile(alien)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "definitely not a sussd cache file\n" {
		t.Error("refused file was modified")
	}
}

// Re-putting an identical entry must not grow the file: the content
// address guarantees the bytes match, so the append is skipped.
func TestPersistDuplicatePutNotReappended(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	c.Put("dup", []byte("value"))
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("dup", []byte("value"))
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Size() != st1.Size() {
		t.Fatalf("duplicate Put grew the log %d → %d bytes", st1.Size(), st2.Size())
	}
	c.Close()
	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 1 {
		t.Fatalf("recovery found %d entries, want 1", info.Entries)
	}
}

// An implausible length field (random garbage where a frame should
// be) truncates instead of attempting a huge allocation.
func TestPersistImplausibleLengthTruncates(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 2)
	c.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, frameLen+16)
	binary.BigEndian.PutUint32(garbage[:4], 1<<31) // 2 GiB "record"
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 2 || !info.Truncated {
		t.Fatalf("recovery = %+v, want 2 entries with truncation", info)
	}
	if !strings.Contains(info.Reason, "implausible") {
		t.Errorf("recovery reason %q does not mention the length", info.Reason)
	}
}

// faultyFile fails its failAt-th Write (1-based) after putting half the
// record in the file, the way a disk filling up does.
type faultyFile struct {
	*os.File
	writes, failAt int
	truncateErr    error
}

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.writes++; f.writes == f.failAt {
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errors.New("injected: no space left on device")
	}
	return f.File.Write(b)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.truncateErr != nil {
		return f.truncateErr
	}
	return f.File.Truncate(size)
}

// A failed append must not poison the records that follow it: replay
// stops at the first bad record, so torn bytes left in the middle of
// the file would cost every later record at the next restart.
func TestPersistFailedAppendKeepsLaterRecords(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	c.log.f = &faultyFile{File: c.log.f.(*os.File), failAt: 2}
	fillCache(t, c, 3)
	if got := c.PersistErrors(); got != 1 {
		t.Fatalf("PersistErrors = %d, want the 1 injected failure", got)
	}
	c.Close()

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 2 || info.Truncated {
		t.Fatalf("reopen recovery = %+v, want records 1 and 3 from a clean file", info)
	}
	for key, want := range map[string]bool{"key-0000": true, "key-0001": false, "key-0002": true} {
		if _, ok := c2.Get(key); ok != want {
			t.Errorf("%s replayed = %v, want %v", key, ok, want)
		}
	}
}

// When the torn bytes cannot be cut off either, the log stops taking
// appends (each one counted) rather than writing records replay would
// never reach; what was intact before the failure still replays.
func TestPersistUnrecoverableAppendStopsLog(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	c.log.f = &faultyFile{File: c.log.f.(*os.File), failAt: 2, truncateErr: errors.New("injected: I/O error")}
	fillCache(t, c, 4)
	if got := c.PersistErrors(); got != 3 {
		t.Fatalf("PersistErrors = %d, want 3 (the failed append and the two refused after it)", got)
	}
	c.Close()

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 1 || !info.Truncated {
		t.Fatalf("reopen recovery = %+v, want record 1 and a truncated torn tail", info)
	}
}
