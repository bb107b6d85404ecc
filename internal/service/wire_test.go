package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"searchspace/internal/tuner"
	"searchspace/internal/value"
	"searchspace/internal/workloads"
)

// refValueDoc is the reference codec the in-place one must match: a
// json.Decoder with UseNumber per value, and encoding/json for strings.
type refValueDoc ValueDoc

func (d refValueDoc) MarshalJSON() ([]byte, error) {
	switch d.V.Kind() {
	case value.Int:
		return []byte(strconv.FormatInt(d.V.Int(), 10)), nil
	case value.Float:
		s := strconv.FormatFloat(d.V.Float(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return []byte(s), nil
	case value.Bool:
		return []byte(strconv.FormatBool(d.V.Bool())), nil
	case value.String:
		return json.Marshal(d.V.Str())
	}
	return nil, fmt.Errorf("service: unencodable value kind %v", d.V.Kind())
}

func (d *refValueDoc) UnmarshalJSON(raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return err
	}
	switch x := v.(type) {
	case bool:
		d.V = value.OfBool(x)
	case string:
		d.V = value.OfString(x)
	case json.Number:
		s := x.String()
		if !strings.ContainsAny(s, ".eE") {
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				d.V = value.OfInt(i)
				return nil
			}
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		d.V = value.OfFloat(f)
	default:
		return fmt.Errorf("service: parameter value must be a number, bool, or string, got %s", raw)
	}
	return nil
}

// sameValue compares kind and payload, floats bitwise so -0.0 and 0.0
// differ.
func sameValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.String:
		return a.Str() == b.Str()
	}
	return a.Int() == b.Int()
}

// FuzzValueDoc decodes each input as the one-element array [input]
// through the in-place codec and the reference: both must agree on
// error text, kind and value, and every decoded value must encode to
// the reference's bytes.
func FuzzValueDoc(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		raw := []byte("[" + in + "]")
		var fast []ValueDoc
		var ref []refValueDoc
		errFast, errRef := json.Unmarshal(raw, &fast), json.Unmarshal(raw, &ref)
		if (errFast == nil) != (errRef == nil) || errFast != nil && errFast.Error() != errRef.Error() {
			t.Fatalf("%q: error %v, reference %v", raw, errFast, errRef)
		}
		if errFast != nil {
			return
		}
		if len(fast) != len(ref) {
			t.Fatalf("%q: %d values, reference %d", raw, len(fast), len(ref))
		}
		for i := range fast {
			if !sameValue(fast[i].V, ref[i].V) {
				t.Fatalf("%q value %d: %v (%v), reference %v (%v)", raw, i, fast[i].V, fast[i].V.Kind(), ref[i].V, ref[i].V.Kind())
			}
			got, errGot := fast[i].MarshalJSON()
			want, errWant := ref[i].MarshalJSON()
			if (errGot == nil) != (errWant == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%q value %d: encodes %s (%v), reference %s (%v)", raw, i, got, errGot, want, errWant)
			}
		}
	})
}

var (
	configDocType = reflect.TypeFor[ConfigDoc]()
	valueDocType  = reflect.TypeFor[ValueDoc]()
)

// refType mirrors t with every ConfigDoc as a plain map, which
// encoding/json writes by reflection, and every ValueDoc as the
// reference encoder.
func refType(t reflect.Type) reflect.Type {
	switch t {
	case configDocType:
		return reflect.TypeFor[map[string]refValueDoc]()
	case valueDocType:
		return reflect.TypeFor[refValueDoc]()
	}
	switch t.Kind() {
	case reflect.Pointer:
		return reflect.PointerTo(refType(t.Elem()))
	case reflect.Slice:
		return reflect.SliceOf(refType(t.Elem()))
	case reflect.Struct:
		fields := make([]reflect.StructField, t.NumField())
		for i := range fields {
			f := t.Field(i)
			fields[i] = reflect.StructField{Name: f.Name, Type: refType(f.Type), Tag: f.Tag}
		}
		return reflect.StructOf(fields)
	}
	return t
}

// refCopy deep-copies v into its refType mirror.
func refCopy(v reflect.Value) reflect.Value {
	out := reflect.New(refType(v.Type())).Elem()
	switch {
	case v.Type() == valueDocType:
		out.Set(reflect.ValueOf(refValueDoc(v.Interface().(ValueDoc))))
	case v.Type() == configDocType:
		if v.IsNil() {
			break
		}
		out.Set(reflect.MakeMapWithSize(out.Type(), v.Len()))
		for it := v.MapRange(); it.Next(); {
			out.SetMapIndex(it.Key(), refCopy(it.Value()))
		}
	case v.Kind() == reflect.Pointer:
		if !v.IsNil() {
			out.Set(refCopy(v.Elem()).Addr())
		}
	case v.Kind() == reflect.Slice:
		if !v.IsNil() {
			out.Set(reflect.MakeSlice(out.Type(), v.Len(), v.Len()))
			for i := 0; i < v.Len(); i++ {
				out.Index(i).Set(refCopy(v.Index(i)))
			}
		}
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(refCopy(v.Field(i)))
		}
	default:
		out.Set(v)
	}
	return out
}

// TestWireBytesMatchReflection pins ConfigDoc.MarshalJSON to the bytes
// encoding/json's reflection path writes for the same responses, under
// json.Marshal (HTML-escaping) and under the server's own encoder (not).
func TestWireBytesMatchReflection(t *testing.T) {
	cfg := ConfigDoc{
		"block_size_x": {V: value.OfInt(32)},
		"scale":        {V: value.OfFloat(2.0)},
		"neg_zero":     {V: value.OfFloat(math.Copysign(0, -1))},
		"huge":         {V: value.OfFloat(1.8446744073709552e19)},
		"tiny":         {V: value.OfFloat(1e-300)},
		"cached":       {V: value.OfBool(true)},
		"layout":       {V: value.OfString("row")},
		"a<b":          {V: value.OfString("<&>")},
		"lt":           {V: value.OfString("a < b")},
		"z&y>x":        {V: value.OfString("x > y && z")},
		"é":            {V: value.OfString("é")},
		`q"k\`:         {V: value.OfString(`say "hi"\`)},
		"\u2028":       {V: value.OfString("line\u2028sep\u2029")},
		"\xff":         {V: value.OfString("bad\xffutf8")},
		"tab\tkey":     {V: value.OfString("ctl\x01")},
		"":             {V: value.OfString("")},
		"B":            {V: value.OfInt(math.MinInt64)},
	}
	small := ConfigDoc{"x": {V: value.OfInt(1)}}
	row := 7
	responses := []any{
		AskResponse{Session: "s1", Rows: []int{3, 9, 4}, Configs: []ConfigDoc{cfg, small, {}}, Evaluations: 5},
		AskResponse{Session: "s1", Done: true},
		BestDoc{Row: 3, Score: 1.5, Config: cfg},
		BestDoc{Row: 3, Score: 2},
		TellResponse{Session: "s1", Accepted: 3, Best: &BestDoc{Row: 9, Score: 0.5, Config: small}},
		BestResponse{Session: "s1", Best: &BestDoc{Row: 9, Score: 0.5, Config: cfg}, Trace: []TracePointDoc{{Time: 1, Best: 2}}},
		SampleResponse{Strategy: "uniform", Seed: 4, Rows: []int{1, 2}, Configs: []ConfigDoc{cfg, small}},
		SampleResponse{Strategy: "uniform", Rows: []int{1}},
		NeighborsResponse{Row: 1, Kind: "hamming", Rows: []int{2}, Configs: []ConfigDoc{small, cfg}},
		NeighborsResponse{Row: 1, Kind: "hamming"},
		ContainsRequest{Config: cfg, Configs: []ConfigDoc{small, nil}},
		NeighborsRequest{Row: &row, Config: cfg},
		TellRequest{Results: []tuner.Measurement{{Row: 1, Score: 2}}},
	}
	encoders := []struct {
		name string
		enc  func(v any) ([]byte, error)
	}{
		{"json.Marshal", json.Marshal},
		{"server", func(v any) ([]byte, error) {
			rec := httptest.NewRecorder()
			writeJSON(rec, httptest.NewRequest(http.MethodGet, "/", nil), http.StatusOK, v)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			return rec.Body.Bytes(), nil
		}},
	}
	for _, resp := range responses {
		ref := refCopy(reflect.ValueOf(resp)).Interface()
		for _, e := range encoders {
			got, err := e.enc(resp)
			if err != nil {
				t.Fatalf("%s %T: %v", e.name, resp, err)
			}
			want, err := e.enc(ref)
			if err != nil {
				t.Fatalf("%s %T reference: %v", e.name, resp, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %T:\n got %s\nwant %s", e.name, resp, got, want)
			}
		}
	}
	// An unencodable value fails both paths alike.
	nan := ConfigDoc{"x": {V: value.OfFloat(math.NaN())}}
	_, errGot := json.Marshal(nan)
	_, errWant := json.Marshal(refCopy(reflect.ValueOf(nan)).Interface())
	if errGot == nil || errWant == nil {
		t.Errorf("NaN: encoded without error (got %v, reference %v)", errGot, errWant)
	}
}

// TestValueDocDecodeAllocs pins the in-place decode: no allocation for
// a number or a bool, one (the copied text) for a plain string.
func TestValueDocDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want float64
	}{
		{"-1234567", 0},
		{"2.5e-3", 0},
		{"true", 0},
		{`"block_size_x"`, 1},
	} {
		raw := []byte(c.raw)
		var d ValueDoc
		got := testing.AllocsPerRun(100, func() {
			if err := d.UnmarshalJSON(raw); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("decode %s: %v allocations, want %v", c.raw, got, c.want)
		}
	}
}

// tuneBatchContainsBody is perfbench tune's batch/contains request on
// Hotspot: 24 in-domain configurations and 8 with one value replaced by
// a string no domain holds, as 11 columns of 32 values.
func tuneBatchContainsBody() []byte {
	def := workloads.Hotspot()
	rng := rand.New(rand.NewSource(1))
	req := BatchContainsRequest{Params: make([]string, len(def.Params)), Values: make([][]ValueDoc, len(def.Params))}
	for p, prm := range def.Params {
		req.Params[p] = prm.Name
	}
	for q := 0; q < 32; q++ {
		outside := -1
		if q >= 24 {
			outside = rng.Intn(len(def.Params))
		}
		for p, prm := range def.Params {
			v := prm.Values[rng.Intn(len(prm.Values))]
			if p == outside {
				v = value.OfString("perfbench-outside-domain")
			}
			req.Values[p] = append(req.Values[p], ValueDoc{V: v})
		}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return raw
}

// BenchmarkWireDecode decodes tune's batch/contains body as the server
// does, through the in-place codec and through the reference, and
// reports ref/fast from the fastest of at least five runs of each
// (bench-smoke gates it).
func BenchmarkWireDecode(b *testing.B) {
	body := tuneBatchContainsBody()
	type refBatch struct {
		Params []string        `json:"params"`
		Values [][]refValueDoc `json:"values"`
	}
	decode := func(v any) {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
			b.Fatal(err)
		}
	}
	var fast BatchContainsRequest
	var ref refBatch
	decode(&fast)
	decode(&ref)
	for p := range fast.Values {
		for q := range fast.Values[p] {
			if !sameValue(fast.Values[p][q].V, ref.Values[p][q].V) {
				b.Fatalf("column %d query %d: %v, reference %v", p, q, fast.Values[p][q].V, ref.Values[p][q].V)
			}
		}
	}
	const reps = 16
	fastBest, refBest := math.Inf(1), math.Inf(1)
	b.ResetTimer()
	for i := 0; i < b.N || i < 5; i++ {
		t0 := time.Now()
		for range reps {
			var req BatchContainsRequest
			decode(&req)
		}
		fastBest = min(fastBest, time.Since(t0).Seconds()/reps)
		t0 = time.Now()
		for range reps {
			var req refBatch
			decode(&req)
		}
		refBest = min(refBest, time.Since(t0).Seconds()/reps)
	}
	b.ReportMetric(fastBest*1e6, "fast_us")
	b.ReportMetric(refBest*1e6, "ref_us")
	b.ReportMetric(refBest/fastBest, "ref/fast")
	b.ReportMetric(0, "ns/op")
}
