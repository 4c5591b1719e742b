package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// The checkpoint journal makes a campaign resumable: every finished
// mutant outcome is appended as one self-checking line, so a killed
// process restarted with the same image, config and journal re-runs
// only the cells that never completed — and produces a final matrix
// byte-identical to an uninterrupted run.
//
// Format (text, one record per line):
//
//	parallax-checkpoint v1 img=<16 hex> cfg=<16 hex> n=<mutants>
//	<index> <class> <mutant digest, 16 hex> <crc32 of the line prefix, 8 hex>
//
// The header binds the journal to the exact campaign: img is a FNV-64
// of the serialized protected image, cfg a FNV-64 of every Config
// field that shapes the mutant set or its classification, n the
// enumerated mutant count. Each entry carries its mutant's own digest
// so a journal can never silently replay outcomes onto a different
// enumeration.
//
// Appends are single Write calls on an O_APPEND descriptor, so a kill
// can only tear the final line. openJournal truncates a torn tail
// (and only a tail) and treats every other malformation as a typed
// error: a resume either reproduces the exact matrix or refuses.
//
// Deliberately not journaled:
//   - infra-error cells — the failure was transient harness
//     infrastructure, so the resume re-runs them for a real outcome;
//   - outcomes observed after the campaign context was cancelled — a
//     run interrupted mid-flight classifies as a timeout it did not
//     earn, and must not be persisted as one.

// ErrJournalCorrupt reports a checkpoint journal whose contents fail
// structural validation beyond a torn final line: garbage mid-file, a
// bad per-line checksum, an out-of-range index, or two entries that
// disagree about one mutant.
var ErrJournalCorrupt = errors.New("campaign: checkpoint journal corrupt")

// ErrJournalMismatch reports a well-formed journal that belongs to a
// different campaign: another image, another config, another mutant
// enumeration.
var ErrJournalMismatch = errors.New("campaign: checkpoint journal mismatch")

const journalMagic = "parallax-checkpoint v1"

// fnv64 is the journal's content hash (FNV-1a).
func fnv64(parts ...[]byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, p := range parts {
		for _, b := range p {
			h = (h ^ uint64(b)) * 0x100000001b3
		}
	}
	return h
}

// imageHash binds a journal to the exact protected image bytes.
func imageHash(stream []byte) uint64 { return fnv64(stream) }

// configHash folds every Config field that shapes the mutant set or
// its classification. Workers, Obs, Chaos and Checkpoint itself are
// excluded: they change scheduling and bookkeeping, never the matrix a
// given mutant index resolves to. The engine folded is the one the
// path runs, not the Engine field, so "" and the path's own engine
// name one campaign.
func configHash(cfg Config) uint64 {
	var b bytes.Buffer
	fmt.Fprintf(&b, "maxinst=%d timeout=%s stride=%d maxmutants=%d reload=%t membudget=%d stacksize=%d engine=%q kinds=",
		cfg.MaxInst, time.Duration(cfg.Timeout), cfg.Stride, cfg.MaxMutants,
		cfg.Reload, cfg.MemBudget, cfg.StackSize, cfg.engine())
	for _, k := range cfg.Kinds {
		fmt.Fprintf(&b, "%d,", k)
	}
	return fnv64(b.Bytes(), cfg.Stdin)
}

// mutantDigest fingerprints one enumerated mutant so journal entries
// can be verified against the resume's own enumeration.
func mutantDigest(m Mutant) uint64 {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %q %t %d %d %d %t", m.Kind, m.Region, m.Guarded,
		m.Addr, m.Len, m.Bit, m.Truncate)
	return fnv64(b.Bytes())
}

// entryCRC covers an entry line's content fields.
func entryCRC(idx int, c Class, digest uint64) uint32 {
	return crc32.ChecksumIEEE([]byte(fmt.Sprintf("%d %d %016x", idx, c, digest)))
}

// journal is an open checkpoint file accepting outcome appends.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (or creates) the checkpoint at path for the given
// campaign and returns the validated already-finished outcomes. The
// mutants slice is the resume's own enumeration; every journal entry
// is checked against it. A torn final line — the only damage a killed
// O_APPEND writer can cause — is truncated away; anything else fails
// with ErrJournalCorrupt or ErrJournalMismatch.
func openJournal(path string, imgHash uint64, cfg Config, mutants []Mutant) (*journal, map[int]Class, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: opening checkpoint: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: reading checkpoint: %w", err)
	}
	header := fmt.Sprintf("%s img=%016x cfg=%016x n=%d",
		journalMagic, imgHash, configHash(cfg), len(mutants))

	done := make(map[int]Class)
	if len(raw) == 0 {
		// Fresh journal: write the header now, before any outcome.
		if _, err := f.WriteString(header + "\n"); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("campaign: writing checkpoint header: %w", err)
		}
	} else {
		keep, outcomes, err := parseJournal(raw, header, mutants)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if keep != int64(len(raw)) {
			// Torn tail: drop it so the next append starts a clean line.
			if err := f.Truncate(keep); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("campaign: truncating torn checkpoint tail: %w", err)
			}
		}
		if keep == 0 {
			// Even the header was torn: restart the journal from scratch.
			if _, err := f.WriteAt([]byte(header+"\n"), 0); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("campaign: rewriting checkpoint header: %w", err)
			}
		}
		done = outcomes
	}
	// Reopen semantics via flags: every append goes through O_APPEND so
	// concurrent workers' single-Write lines never interleave.
	apnd, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: opening checkpoint for append: %w", err)
	}
	return &journal{f: apnd}, done, nil
}

// parseJournal validates raw against the expected header and mutant
// enumeration. It returns how many bytes of raw are intact (a torn
// final line is excluded) and the finished outcomes.
func parseJournal(raw []byte, header string, mutants []Mutant) (int64, map[int]Class, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return 0, nil, fmt.Errorf("%w: unreadable header", ErrJournalCorrupt)
	}
	got := sc.Text()
	if !strings.HasPrefix(got, journalMagic) {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrJournalCorrupt)
	}
	if got != header {
		// A well-formed header that names another campaign. A torn
		// header (no trailing newline yet) is indistinguishable from a
		// mismatch only when the file holds exactly one partial line;
		// refusing is the safe side of that ambiguity.
		return 0, nil, fmt.Errorf("%w: journal header %q, campaign %q", ErrJournalMismatch, got, header)
	}
	if int64(len(raw)) <= int64(len(header)) {
		// The header's own newline never landed: the kill interrupted
		// the very first write. Nothing usable; start over.
		return 0, make(map[int]Class), nil
	}

	done := make(map[int]Class)
	keep := int64(len(header) + 1)
	for sc.Scan() {
		line := sc.Text()
		if keep+int64(len(line)) >= int64(len(raw)) {
			// The final line never got its newline: a torn write, even
			// if its prefix happens to parse. Resume re-runs that cell.
			return keep, done, nil
		}
		var idx, cls int
		var digest uint64
		var crc uint32
		n, err := fmt.Sscanf(line, "%d %d %x %x", &idx, &cls, &digest, &crc)
		// Round-tripping through the canonical form rejects what Sscanf
		// alone tolerates: trailing garbage, case drift, odd spacing.
		if err != nil || n != 4 ||
			line != fmt.Sprintf("%d %d %016x %08x", idx, cls, digest, crc) ||
			entryCRC(idx, Class(cls), digest) != crc {
			return 0, nil, fmt.Errorf("%w: entry %q", ErrJournalCorrupt, line)
		}
		if idx < 0 || idx >= len(mutants) || Class(cls) >= numClasses {
			return 0, nil, fmt.Errorf("%w: entry %q out of range", ErrJournalCorrupt, line)
		}
		if digest != mutantDigest(mutants[idx]) {
			return 0, nil, fmt.Errorf("%w: mutant %d digest differs from enumeration", ErrJournalMismatch, idx)
		}
		if prev, ok := done[idx]; ok && prev != Class(cls) {
			return 0, nil, fmt.Errorf("%w: mutant %d recorded as both %v and %v",
				ErrJournalCorrupt, idx, prev, Class(cls))
		}
		done[idx] = Class(cls)
		keep += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrJournalCorrupt, err)
	}
	return keep, done, nil
}

// append records one finished mutant outcome. The line is one Write on
// an O_APPEND descriptor — atomic with respect to both a kill and the
// other workers.
func (j *journal) append(idx int, c Class, m Mutant) error {
	d := mutantDigest(m)
	line := fmt.Sprintf("%d %d %016x %08x\n", idx, c, d, entryCRC(idx, c, d))
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.WriteString(line); err != nil {
		return fmt.Errorf("campaign: appending checkpoint entry: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
