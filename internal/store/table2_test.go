package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"searchspace"
	"searchspace/internal/workloads"
)

// table2Snapshots builds the eight Table 2 spaces with the optimized
// method and wraps each as a snapshot, the way the service does.
func table2Snapshots(tb testing.TB) []*Snapshot {
	tb.Helper()
	var out []*Snapshot
	for _, def := range workloads.RealWorld() {
		ss, stats, err := searchspace.FromDefinition(def).BuildTimed(searchspace.Optimized)
		if err != nil {
			tb.Fatalf("%s: %v", def.Name, err)
		}
		out = append(out, &Snapshot{Def: def, Method: searchspace.Optimized,
			Stats: stats, Bounds: ss.TrueBounds(), Space: ss})
	}
	return out
}

// refDecodeBytes is DecodeBytes as it was before cells were checked
// while being widened: every column is widened unchecked, and a second
// pass then reads every cell again to check it against its domain. It
// is the reference BenchmarkSnapshotDecode times DecodeBytes against.
func refDecodeBytes(raw []byte) (*Snapshot, error) {
	payload, version, err := verifyBlob(raw)
	if err != nil {
		return nil, err
	}
	snap, cells, err := decodePrefix(payload, version)
	if err != nil {
		return nil, err
	}
	params := snap.Def.Params
	cols := make([][]int32, len(params))
	var zeros []int32
	data := cells.data
	for p, w := range cells.widths {
		if w == 0 {
			if zeros == nil {
				zeros = make([]int32, cells.rows)
			}
			cols[p] = zeros
			continue
		}
		col := make([]int32, cells.rows)
		switch w {
		case 1:
			for r, c := range data[:cells.rows] {
				col[r] = int32(c)
			}
		case 2:
			for r := range col {
				col[r] = int32(binary.LittleEndian.Uint16(data[2*r:]))
			}
		default:
			for r := range col {
				col[r] = int32(binary.LittleEndian.Uint32(data[4*r:]))
			}
		}
		cols[p] = col
		data = data[cells.rows*w:]
	}
	for p, col := range cols {
		domain := int32(len(params[p].Values))
		for r, di := range col {
			if di < 0 || di >= domain {
				return nil, fmt.Errorf("%w: column %q row %d: value index %d outside domain of %d",
					ErrCorrupt, params[p].Name, r, di, domain)
			}
		}
	}
	if snap.Space, err = searchspace.FromColumns(snap.Def, cols); err != nil {
		return nil, err
	}
	return snap, nil
}

// BenchmarkSnapshotDecode times DecodeBytes on Hotspot's blob, which
// checks each cell against its domain as it widens it, against
// refDecodeBytes, which checks in a second pass. Each side takes the
// fastest of at least 7 runs, alternating, each after a collection so
// that neither pays for the other's garbage. It reports both times and
// ref/fast.
func BenchmarkSnapshotDecode(b *testing.B) {
	var raw []byte
	for _, def := range workloads.RealWorld() {
		if def.Name != "Hotspot" {
			continue
		}
		ss, stats, err := searchspace.FromDefinition(def).BuildTimed(searchspace.Optimized)
		if err != nil {
			b.Fatal(err)
		}
		if raw, err = EncodeBytes(&Snapshot{Def: def, Method: searchspace.Optimized,
			Stats: stats, Bounds: ss.TrueBounds(), Space: ss}); err != nil {
			b.Fatal(err)
		}
	}
	fast, err := DecodeBytes(raw)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := refDecodeBytes(raw)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(fast.Space.Columns(), ref.Space.Columns()) {
		b.Fatal("DecodeBytes and the reference decode disagree")
	}
	fastBest, refBest := math.Inf(1), math.Inf(1)
	timed := func(decode func([]byte) (*Snapshot, error)) float64 {
		runtime.GC()
		start := time.Now()
		if _, err := decode(raw); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	b.ResetTimer()
	for i := 0; i < b.N || i < 7; i++ {
		fastBest = min(fastBest, timed(DecodeBytes))
		refBest = min(refBest, timed(refDecodeBytes))
	}
	b.ReportMetric(fastBest*1e3, "fast_ms")
	b.ReportMetric(refBest*1e3, "ref_ms")
	b.ReportMetric(refBest/fastBest, "ref/fast")
	b.ReportMetric(0, "ns/op")
}

// TestSnapshotBlobSize pins the version-6 size of the eight Table 2
// blobs: exactly the header, the prefix, rows x the row's summed cell
// widths, and the checksum. The row widths are pinned too: no Table 2
// domain exceeds 256 values, so each is the number of parameters with
// more than one value. As int32 cells a row took 4 bytes per parameter
// (Hotspot: 44).
func TestSnapshotBlobSize(t *testing.T) {
	rowWidth := map[string]int{
		"Dedispersion": 5,
		"ExpDist":      9,
		"Hotspot":      8,
		"GEMM":         14,
		"MicroHH":      7,
		"ATF PRL 2x2":  14,
		"ATF PRL 4x4":  14,
		"ATF PRL 8x8":  14,
	}
	for _, snap := range table2Snapshots(t) {
		name := snap.Def.Name
		sum := 0
		for _, p := range snap.Def.Params {
			sum += cellWidth(len(p.Values))
		}
		if want, ok := rowWidth[name]; !ok || sum != want {
			t.Errorf("%s: rows are %d bytes, want %d", name, sum, want)
		}
		raw, err := EncodeBytes(snap)
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := encodePrefix(snap)
		if err != nil {
			t.Fatal(err)
		}
		if want := headerBytes + len(prefix) + snap.Space.Size()*sum + sha256.Size; len(raw) != want {
			t.Errorf("%s: blob is %d bytes, want %d", name, len(raw), want)
		}
	}
}

// BenchmarkSnapshotPutGet times the store tier on each Table 2 space
// through a real Store: Put (encode, write, fsync, rename) into an
// empty directory, then Get (read, verify, decode) back.
// It reports the blob's bytes per row and the mean put and get times.
func BenchmarkSnapshotPutGet(b *testing.B) {
	for _, snap := range table2Snapshots(b) {
		b.Run(snap.Def.Name, func(b *testing.B) {
			s, err := Open(Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			var put, get time.Duration
			var blobBytes int64
			for i := 0; i < b.N; i++ {
				id := testID(i)
				start := time.Now()
				if err := s.Put(id, snap); err != nil {
					b.Fatal(err)
				}
				put += time.Since(start)
				blobBytes = s.Stats().Bytes
				start = time.Now()
				if _, err := s.Get(id); err != nil {
					b.Fatal(err)
				}
				get += time.Since(start)
				s.Delete(id)
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(float64(blobBytes)/float64(max(snap.Space.Size(), 1)), "blob_bytes/row")
			b.ReportMetric(ms(put), "put_ms")
			b.ReportMetric(ms(get), "get_ms")
		})
	}
}
