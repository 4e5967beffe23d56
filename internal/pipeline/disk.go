package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// DiskStore is the content-addressed on-disk artifact store. It is safe
// for concurrent use; every write is staged into a temporary file in the
// destination directory and atomically renamed into place, so readers
// never observe a partial artifact and an interrupted run leaves at most
// an orphaned temp file behind.
type DiskStore struct {
	dir string
	faultGate
	eventLog
}

// Open returns a disk store rooted at dir, creating it if needed.
func Open(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("pipeline: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: open store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path derives the content address of an artifact: a hash of every key
// component plus the codec identity, laid out as one directory per
// function with human-scannable "<stage>-<address>.art" file names.
func (s *DiskStore) path(key Key, codecName string, codecVersion uint32) string {
	return filepath.Join(s.dir, key.Func,
		fmt.Sprintf("%s-%s.art", key.Stage, contentAddress(key, codecName, codecVersion)))
}

// contentAddress hashes every key component plus the codec identity into
// the hex address shared by all backends: the disk store uses it in file
// names, the memory store as the map key, and the remote protocol carries
// the raw components so the serving side derives the same address.
func contentAddress(key Key, codecName string, codecVersion uint32) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%d",
		key.Func, key.Stage, key.Fingerprint, codecName, codecVersion)))
	return hex.EncodeToString(sum[:12])
}

// Get returns the artifact bytes under key, reporting ok=false on any
// error (most commonly: not cached yet). Injection: SiteStoreRead turns
// the read into a miss; SiteStoreBitFlip corrupts one byte of the
// returned copy so the frame checksum must catch it.
func (s *DiskStore) Get(key Key, codecName string, codecVersion uint32) ([]byte, bool) {
	if s.faults().Should(fault.SiteStoreRead) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key, codecName, codecVersion))
	if err != nil {
		return nil, false
	}
	if s.faults().Should(fault.SiteStoreBitFlip) && len(data) > 0 {
		data[len(data)/2] ^= 0x01
	}
	return data, true
}

// Put stores data under key atomically: temp file in the same directory,
// then rename into place. Injection: SiteStoreWrite fails before any
// byte is staged; SiteStoreWriteShort persists only a prefix of the temp
// file and then fails like a full disk would — in both cases nothing is
// renamed into place, so no partial artifact can ever be read back.
func (s *DiskStore) Put(key Key, codecName string, codecVersion uint32, data []byte) error {
	if s.faults().Should(fault.SiteStoreWrite) {
		return fault.Injected(fault.SiteStoreWrite)
	}
	path := s.path(key, codecName, codecVersion)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if s.faults().Should(fault.SiteStoreWriteShort) {
		_, _ = tmp.Write(data[:len(data)/2])
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("pipeline: write %s: %w", filepath.Base(path), io.ErrShortWrite)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Delete removes the artifact under key; an absent artifact is not an
// error.
func (s *DiskStore) Delete(key Key, codecName string, codecVersion uint32) error {
	err := os.Remove(s.path(key, codecName, codecVersion))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Audit walks the store and reports the first ill-formed entry: a
// lingering temp file, a non-artifact file, or an artifact whose frame
// checksum does not verify. The fault-matrix tests run it after every
// scenario to prove no failure mode leaves a corrupt or partially
// written artifact behind.
func (s *DiskStore) Audit() error {
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.Contains(name, ".tmp") {
			return fmt.Errorf("pipeline: leftover temp file %s", path)
		}
		if !strings.HasSuffix(name, ".art") {
			return fmt.Errorf("pipeline: foreign file %s in store", path)
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if cerr := CheckFrame(data); cerr != nil {
			return fmt.Errorf("%s: %w", path, cerr)
		}
		return nil
	})
}
