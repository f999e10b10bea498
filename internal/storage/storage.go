// Package storage provides binary serialization of arrays and chunks —
// the unit of memory, I/O, and network transmission in the ADM (Section
// 2.1) — plus a simple directory-backed store used by the data-generation
// tooling. Chunks serialize in their vertically partitioned layout: the
// coordinate column of each dimension, then each attribute column, with a
// CRC-32 integrity checksum per array.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"shufflejoin/internal/array"
)

// magic identifies serialized array files.
const magic = "SJAR"

// formatVersion is bumped on incompatible layout changes.
const formatVersion = 1

// WriteArray serializes an array: header, schema literal, then every
// stored chunk in deterministic (C-order key) order.
func WriteArray(w io.Writer, a *array.Array) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeUvarint(bw, formatVersion); err != nil {
		return err
	}
	if err := writeString(bw, a.Schema.String()); err != nil {
		return err
	}
	keys := a.SortedKeys()
	if err := writeUvarint(bw, uint64(len(keys))); err != nil {
		return err
	}
	var text []byte // each key's text form, the one the file holds
	for _, key := range keys {
		text = a.Schema.AppendKey(text[:0], key)
		if err := writeChunk(bw, text, a.Chunks[key]); err != nil {
			return fmt.Errorf("storage: chunk %s: %w", text, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailing checksum over everything written so far.
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// ReadArray deserializes an array written by WriteArray, verifying the
// trailing CRC-32 checksum over the payload.
func ReadArray(r io.Reader) (*array.Array, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(magic)+4 {
		return nil, fmt.Errorf("storage: truncated file (%d bytes)", len(raw))
	}
	payload, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	want := crc32.ChecksumIEEE(payload)
	if got := binary.BigEndian.Uint32(sum); got != want {
		return nil, fmt.Errorf("storage: checksum mismatch: file %08x, computed %08x", got, want)
	}
	br := bytes.NewReader(payload)

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("storage: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("storage: bad magic %q", head)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("storage: unsupported format version %d", ver)
	}
	schemaLit, err := readString(br)
	if err != nil {
		return nil, err
	}
	schema, err := array.ParseSchema(schemaLit)
	if err != nil {
		return nil, err
	}
	a, err := array.New(schema)
	if err != nil {
		return nil, err
	}
	nChunks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	var text []byte // each chunk's key text in turn
	for c := uint64(0); c < nChunks; c++ {
		var ch *array.Chunk
		if text, err = readBytes(br, text); err == nil {
			ch, err = readChunk(br, schema, text)
		}
		if err != nil {
			return nil, fmt.Errorf("storage: chunk %d: %w", c, err)
		}
		if _, dup := a.Chunks[ch.Key]; dup {
			return nil, fmt.Errorf("storage: chunk %d: key %q repeats", c, schema.AppendKey(nil, ch.Key))
		}
		a.Chunks[ch.Key] = ch
	}
	return a, nil
}

func writeChunk(w *bufio.Writer, key []byte, ch *array.Chunk) error {
	if err := writeUvarint(w, uint64(len(key))); err != nil {
		return err
	}
	if _, err := w.Write(key); err != nil {
		return err
	}
	n := ch.Len()
	if err := writeUvarint(w, uint64(n)); err != nil {
		return err
	}
	sorted := uint64(0)
	if ch.Sorted {
		sorted = 1
	}
	if err := writeUvarint(w, sorted); err != nil {
		return err
	}
	// Coordinate columns.
	if err := writeUvarint(w, uint64(ch.NDims)); err != nil {
		return err
	}
	for d := 0; d < ch.NDims; d++ {
		for _, v := range ch.Coords[d] {
			if err := writeVarint(w, v); err != nil {
				return err
			}
		}
	}
	// Attribute columns.
	if err := writeUvarint(w, uint64(len(ch.Cols))); err != nil {
		return err
	}
	for i := range ch.Cols {
		col := &ch.Cols[i]
		if err := writeUvarint(w, uint64(col.Type)); err != nil {
			return err
		}
		switch col.Type {
		case array.TypeInt64:
			for _, v := range col.Ints {
				if err := writeVarint(w, v); err != nil {
					return err
				}
			}
		case array.TypeFloat64:
			var buf [8]byte
			for _, v := range col.Fs {
				binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
				if _, err := w.Write(buf[:]); err != nil {
					return err
				}
			}
		case array.TypeString:
			for _, s := range col.Strs {
				if err := writeString(w, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readChunk reads the chunk whose key text has been read.
func readChunk(r *bytes.Reader, schema *array.Schema, text []byte) (*array.Chunk, error) {
	key, err := schema.ParseKey(text)
	if err != nil {
		return nil, err
	}
	n, err := readCount(r)
	if err != nil {
		return nil, err
	}
	sorted, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	nDims64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	nDims := len(schema.Dims)
	if nDims64 != uint64(nDims) {
		return nil, fmt.Errorf("chunk has %d dims, schema %d", nDims64, nDims)
	}
	ch := &array.Chunk{Key: key, NDims: nDims, Sorted: sorted == 1}
	ch.Coords = make([][]int64, nDims)
	var idx [8]int64 // stack room for up to eight dimensions
	home := schema.KeyIndices(key, idx[:0])
	for d, dim := range schema.Dims {
		if ch.Coords[d], err = readInts(r, n); err != nil {
			return nil, err
		}
		// Every cell lies in the chunk its key names.
		for _, v := range ch.Coords[d] {
			if !dim.Contains(v) || dim.ChunkIndex(v) != home[d] {
				return nil, fmt.Errorf("cell coordinate %s=%d is outside chunk %s", dim.Name, v, schema.AppendKey(nil, key))
			}
		}
	}
	nCols64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	nCols := len(schema.Attrs)
	if nCols64 != uint64(nCols) {
		return nil, fmt.Errorf("chunk has %d columns, schema %d", nCols64, nCols)
	}
	ch.Cols = make([]array.Column, nCols)
	for i := 0; i < nCols; i++ {
		t64, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		t := array.ScalarType(t64)
		if t != schema.Attrs[i].Type {
			return nil, fmt.Errorf("column %d type %v, schema says %v", i, t, schema.Attrs[i].Type)
		}
		col := array.NewColumn(t)
		switch t {
		case array.TypeInt64:
			if col.Ints, err = readInts(r, n); err != nil {
				return nil, err
			}
		case array.TypeFloat64:
			if err := checkRoom(r, n, 8); err != nil {
				return nil, err
			}
			col.Fs = make([]float64, n)
			var buf [8]byte
			for j := 0; j < n; j++ {
				if _, err := io.ReadFull(r, buf[:]); err != nil {
					return nil, err
				}
				col.Fs[j] = math.Float64frombits(binary.BigEndian.Uint64(buf[:]))
			}
		case array.TypeString:
			if err := checkRoom(r, n, 1); err != nil { // each has a length prefix
				return nil, err
			}
			col.Strs = make([]string, n)
			for j := 0; j < n; j++ {
				s, err := readString(r)
				if err != nil {
					return nil, err
				}
				col.Strs[j] = s
			}
		default:
			return nil, fmt.Errorf("unknown column type %d", t64)
		}
		ch.Cols[i] = col
	}
	return ch, nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w *bufio.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// readString reads a length-prefixed string into one allocation: the
// builder's, which String hands over without the copy string([]byte)
// would make.
func readString(r *bytes.Reader) (string, error) {
	n, err := readCount(r)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(n)
	for ; n > 0; n-- {
		c, err := r.ReadByte()
		if err != nil {
			return "", err
		}
		b.WriteByte(c)
	}
	return b.String(), nil
}

// readBytes reads a length-prefixed string into buf, which it returns,
// grown if it had to be: a reader that reuses buf allocates nothing for
// strings it only parses.
func readBytes(r *bytes.Reader, buf []byte) ([]byte, error) {
	n, err := readCount(r)
	if err != nil {
		return buf, err
	}
	buf = slices.Grow(buf[:0], n)[:n]
	_, err = io.ReadFull(r, buf)
	return buf, err
}

// readCount reads the uvarint count of elements that follow and rejects
// one the unread payload cannot hold at a byte per element. A count is
// untrusted input (the checksum only proves the file is what its writer
// wrote) and it sizes the allocations that follow.
func readCount(r *bytes.Reader) (int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Len()) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left", n, r.Len())
	}
	return int(n), nil
}

// readInts reads a column of n varints, having checked that n fit.
func readInts(r *bytes.Reader, n int) ([]int64, error) {
	if err := checkRoom(r, n, 1); err != nil {
		return nil, err
	}
	vals := make([]int64, n)
	for i := range vals {
		v, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// checkRoom reports an error unless n more elements of at least width
// bytes each fit in the unread payload.
func checkRoom(r *bytes.Reader, n, width int) error {
	if n > r.Len()/width {
		return fmt.Errorf("%d elements of at least %d bytes exceed the %d bytes left", n, width, r.Len())
	}
	return nil
}

// Store persists arrays as files in a directory, one ".sjar" file per
// array name.
type Store struct {
	Dir string
}

// NewStore creates the directory if needed.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{Dir: dir}, nil
}

func (s *Store) path(name string) string {
	return filepath.Join(s.Dir, name+".sjar")
}

// Save writes the array under its schema name.
func (s *Store) Save(a *array.Array) error {
	f, err := os.Create(s.path(a.Schema.Name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteArray(f, a); err != nil {
		return err
	}
	return f.Sync()
}
